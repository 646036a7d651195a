// Top-level array region analysis: Algorithm 1 of the paper. Traverses the
// call graph, runs IPL local summaries, propagates them interprocedurally
// (when `-IPA:array_section:array_summary` is on), computes access densities
// and assembles the `.rgn` rows for Dragon.
#pragma once

#include <map>
#include <vector>

#include "ipa/callgraph.hpp"
#include "ipa/interproc.hpp"
#include "ipa/local.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"

namespace ara::ipa {

/// Mirrors the paper's compile flags (§V-B step 1): `-IPA:array_section:
/// array_summary` enables interprocedural propagation; `-dragon` keeps
/// per-reference rows for the GUI.
struct AnalyzeOptions {
  bool interprocedural = true;
};

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

[[nodiscard]] AnalysisResult analyze(const ir::Program& program, const AnalyzeOptions& opts = {});

/// Rebuilds only the display rows from the records (used after filtering).
[[nodiscard]] std::vector<rgn::RegionRow> build_rows(const ir::Program& program,
                                                     const AnalysisResult& result);

/// Builds the in-memory .dgn project (files, procedures, call-graph edges).
/// A call site whose callee is not in the graph keeps an edge under its
/// recorded name, so a degraded batch run shows what it is missing.
[[nodiscard]] rgn::DgnProject build_dgn_project(const ir::Program& program,
                                                const AnalysisResult& result,
                                                const std::string& name);

}  // namespace ara::ipa
