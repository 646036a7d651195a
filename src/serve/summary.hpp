// Per-translation-unit analysis summaries: the unit of work and of caching
// of the one analysis pipeline. A UnitSummary is everything the link phase
// needs from one source file: its symbols (in symbol-table creation order,
// so the linker can replay the whole-program ST layout), each procedure's
// local access records, side effects and call sites in the ipa types,
// unresolved external references, and, in the batch engine, the unit's
// rendered CFG text. This mirrors OpenUH's IPL, which "gathers ...
// procedure summary information from each compilation unit" into the
// object file for IPA to consume later (§IV-A). The batch engine persists
// the same data keyed by content hash, which is what makes incremental
// re-analysis possible; the library summarizes its whole-program compile
// into one UnitSummary per file and links those.
//
// The text serialization (write_unit_summary / parse_unit_summary) is the
// cache payload format documented in docs/FORMATS.md. Parsing is total:
// any malformed input yields nullopt — a corrupt cache entry must become a
// cache miss, never undefined behavior.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/sema.hpp"
#include "ipa/callgraph.hpp"
#include "ipa/summary.hpp"
#include "ir/program.hpp"
#include "obs/provenance.hpp"

namespace ara::serve {

/// One unit-local symbol-table entry, in creation order. The link phase
/// replays these into the whole-program table in the exact order the
/// whole-program front end would have created them. That keeps output
/// byte-identical run to run (addresses, map iteration order and merge
/// order all follow StIdx), and it gives the library's linked results the
/// StIdx values of its own compile, which the interpreter, lno and the
/// Dragon advisors index with.
struct SymInfo {
  enum class Kind : std::uint8_t {
    Proc,    // procedure defined in this unit
    Extern,  // procedure referenced but not defined here (separate compile only)
    Global,  // file-scope / COMMON variable (unifies by name at link)
    Formal,  // procedure formal parameter
    Local,   // procedure-local variable
    Import,  // global referenced here but declared by a sibling unit: the
             // link phase binds it by name to the declaring unit's Global
             // instead of replaying a new ST (v4)
  };
  Kind kind = Kind::Local;
  std::string name;       // source spelling
  std::string owner;      // lowercase defining procedure ("" for globals/procs)
  std::uint32_t formal_pos = 0;  // 1-based (Formal only)
  std::uint32_t line = 0;        // declaration position
  std::uint32_t col = 0;
  // Type (scalar or array).
  bool is_array = false;
  ir::Mtype mtype = ir::Mtype::Void;
  bool row_major = true;
  bool noncontiguous = false;
  bool coarray = false;
  std::vector<ir::ArrayDim> dims;  // arrays only, source order
};

/// One procedure's summary, with every symbol id in unit numbering (unit
/// StIdx i names UnitSummary::symbols[i-1]). `sym` is the 0-based index of
/// the procedure's own entry. `records` are the local USE/DEF/FORMAL/PASSED
/// rows in analysis order; their scope and file are set by the link.
/// `callsites` are in WHIRL tree-walk order (the order CallGraph::build
/// collects them) and name their callee by lowercase name in `unresolved`,
/// with `callee == ipa::kNoNode`, until the link resolves them.
struct ProcSummary {
  std::uint32_t sym = 0;
  std::vector<ipa::AccessRecord> records;
  ipa::SideEffects effects;
  std::vector<ipa::CallSite> callsites;
};

/// An unresolved procedure reference (diagnosed at link if no unit defines
/// the name).
struct ExternSummary {
  std::string name;  // lowercase
  std::uint32_t line = 0;
};

struct UnitSummary {
  std::string source_name;  // as registered (file name, not path)
  Language language = Language::Fortran;
  std::vector<SymInfo> symbols;    // unit StIdx i lives at symbols[i-1]
  std::vector<ProcSummary> procs;  // in definition (lowering) order
  std::vector<ExternSummary> externs;
  std::string cfg_text;  // write_cfg output minus its header line (batch engine only)
  /// Rendered non-error diagnostics of the clean compile ("" when silent),
  /// cached with the summary so warnings replay byte-identically on hits.
  std::string diagnostics;
  /// Provenance cause records captured while analyzing this unit, in capture
  /// (seq) order. Cached with the summary (v3) so warm-cache runs replay
  /// --explain / .provenance.jsonl byte-identically; `unit` is rewritten to
  /// the current input index on load.
  std::vector<obs::ProvRecord> provenance;
};

/// Summarizes a compiled program: one UnitSummary per source file, in
/// file order. Builds the call graph and runs the IPL local analysis once
/// for the whole program. A global a file uses but another file declared
/// first (St::file) becomes an Import entry of the using file, as does any
/// global named in `imported_globals` (lowercase; the globals sema resolved
/// from a cross-unit import table). `externs` are the unresolved calls of a
/// separately compiled unit. No CFG text is rendered here.
[[nodiscard]] std::vector<UnitSummary> summarize(
    const ir::Program& program, const std::vector<fe::ExternRef>& externs = {},
    const std::vector<std::string>& imported_globals = {});

/// Cache payload serialization (see docs/FORMATS.md, "unit summary").
[[nodiscard]] std::string write_unit_summary(const UnitSummary& unit);
[[nodiscard]] std::optional<UnitSummary> parse_unit_summary(std::string_view text);

}  // namespace ara::serve
