// The result of array region analysis (Algorithm 1 of the paper) and the
// two artifact builders over it: the `.rgn` rows for Dragon, with access
// densities, and the `.dgn` project. The one pipeline that fills an
// AnalysisResult is serve::summarize (call graph + IPL local summaries)
// followed by serve::link_units (interprocedural propagation when
// `-IPA:array_section:array_summary` is on, then the rows); the library
// reaches it through driver::Compiler::analyze / serve::analyze_program.
#pragma once

#include <map>
#include <vector>

#include "ipa/callgraph.hpp"
#include "ipa/interproc.hpp"
#include "ipa/summary.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"

namespace ara::ipa {

struct AnalysisResult {
  CallGraph callgraph;
  std::vector<AccessRecord> records;          // local + interprocedural
  std::vector<SideEffects> side_effects;      // per call-graph node
  std::map<ir::StIdx, ir::StIdx> formal_binding;
  std::vector<rgn::RegionRow> rows;           // the .rgn table

  /// Side effects of a procedure by name; nullptr when unknown.
  [[nodiscard]] const SideEffects* effects_of(std::string_view proc,
                                              const ir::Program& program) const;
};

/// Builds the display rows from the records.
[[nodiscard]] std::vector<rgn::RegionRow> build_rows(const ir::Program& program,
                                                     const AnalysisResult& result);

/// Builds the in-memory .dgn project (files, procedures, call-graph edges).
/// A call site whose callee is not in the graph keeps an edge under its
/// recorded name, so a degraded batch run shows what it is missing.
[[nodiscard]] rgn::DgnProject build_dgn_project(const ir::Program& program,
                                                const AnalysisResult& result,
                                                const std::string& name);

}  // namespace ara::ipa
