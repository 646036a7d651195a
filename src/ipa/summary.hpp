// Summary data structures shared by the IPL (local) and IPA (interprocedural)
// phases: per-reference access records and per-procedure side-effect
// summaries, the internal analogue of OpenUH's PROJECTED_REGION hierarchy
// ("this module consists of many data-structures constructed in a
// hierarchical format", §IV-C).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ir/symtab.hpp"
#include "regions/access.hpp"
#include "regions/region.hpp"
#include "support/source_location.hpp"

namespace ara::ipa {

/// One displayed access: a region of one array under one mode. Local records
/// describe a single syntactic reference (refs == 1); interprocedural
/// records (IDEF/IUSE, Fig 1) summarize a callee's side effect at a call
/// site and carry the callee's reference count.
struct AccessRecord {
  ir::StIdx array = ir::kInvalidSt;
  regions::AccessMode mode = regions::AccessMode::Use;
  bool interproc = false;  // IDEF / IUSE
  bool remote = false;     // coarray co-indexed access (RUSE / RDEF, §VI)
  std::string image;       // co-subscript rendering, e.g. "me + 1" (remote only)
  regions::Region region;
  std::uint64_t refs = 1;
  ir::StIdx scope_proc = ir::kInvalidSt;  // procedure whose table shows the row
  FileId file = kInvalidFileId;           // TU where the access happens
  std::uint32_t line = 0;

  friend bool operator==(const AccessRecord&, const AccessRecord&) = default;
};

/// Regions + reference count for one (array, mode) pair. Region lists are
/// kept exact up to `kMaxRegions`, after which constant regions collapse
/// into their hull (the paper's "union of regions is approximated", §III).
struct ModeRegions {
  std::vector<regions::Region> regions;
  std::uint64_t refs = 0;

  static constexpr std::size_t kMaxRegions = 8;

  /// Adds a region (deduplicating identical ones) and `refs` references.
  void merge(const regions::Region& r, std::uint64_t ref_count);
  void merge_all(const ModeRegions& other);

  friend bool operator==(const ModeRegions&, const ModeRegions&) = default;
};

/// A procedure's (transitive) side effects on arrays visible to callers:
/// its formals and globals, per access mode.
struct SideEffects {
  std::map<std::pair<ir::StIdx, regions::AccessMode>, ModeRegions> effects;

  friend bool operator==(const SideEffects&, const SideEffects&) = default;
};

/// Result of local (IPL) analysis for one procedure.
struct LocalSummary {
  std::vector<AccessRecord> records;  // USE/DEF references, FORMAL and PASSED rows
  SideEffects side_effects;           // DEF/USE on formals and globals only
};

}  // namespace ara::ipa
