// Cross-unit global-declaration import (scoped v1, C units only). The serve
// engine compiles one translation unit at a time, so a C unit referencing a
// file-scope variable declared in a *sibling* unit used to fail sema with
// "use of undeclared identifier" — the whole-program front end resolves the
// same reference through its program-wide globals map. build_global_index
// recovers that map for separate compilation: it parse-only scans every C
// source and collects the file-scope declarations (first declaration wins,
// in unit order, exactly like Sema::declare_globals), producing the
// fe::GlobalImportTable that sema consults before erroring. Symbols resolved
// this way are marked SymInfo::Kind::Import in the unit summary and bound to
// the declaring unit's Global at link time, so the linked symbol table — and
// every exported byte — matches a whole-program compile's (the library's).
#pragma once

#include <string>
#include <vector>

#include "frontend/sema.hpp"
#include "serve/engine.hpp"

namespace ara::serve {

/// Parse-only scan of the C sources' file-scope declarations. Returns an
/// empty table for single-unit batches (nothing to import from) or when no
/// C unit is present; units that fail to parse contribute nothing (they will
/// fail properly under the per-unit error barrier). Never throws.
[[nodiscard]] fe::GlobalImportTable build_global_index(
    const std::vector<SourceBuffer>& sources);

/// One-token digest of an import declaration's shape, folded into the cache
/// key of every unit that imports the name: a changed declaration then
/// misses (and re-summarizes) exactly the importing units.
[[nodiscard]] std::string import_signature(const fe::ImportDecl& decl);

/// The cache-key suffix for one unit: `names` are the (lowercase) globals
/// the unit imports, resolved against `index`. Deterministic: names are
/// de-duplicated and sorted; a name absent from the index digests as "!".
[[nodiscard]] std::string import_flags(const std::vector<std::string>& names,
                                       const fe::GlobalImportTable& index);

}  // namespace ara::serve
