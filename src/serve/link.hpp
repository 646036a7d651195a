// The link phase of the one analysis pipeline: joins per-unit summaries
// into whole-program analysis results. This is the serial back half of
// every analysis, the analogue of OpenUH's IPA main stage reading every
// unit's IPL summary out of the object files (§IV-A). The batch engine
// links the summaries of separately compiled (or cached) units; the
// library (analyze_program, behind driver::Compiler::analyze) links the
// per-file summaries of its one whole-program compile. The link reads no
// WHIRL: everything it consumes comes from UnitSummary, so cached units
// link exactly like freshly analyzed ones.
//
// Determinism contract: the linked symbol table is replayed in the same
// creation order the whole-program front end uses (all units' procedures,
// then canonical globals in first-declaration order, then each
// procedure's formals and locals). Linked StIdx values therefore equal
// those of a whole-program compile of the same sources, which makes map
// iteration order, region merge order and the static data layout (and
// hence every byte of the .rgn output) independent of how many workers
// produced the summaries and of whether they came from the cache, and
// lets the library hand its linked records to code that indexes the
// compile's own symbol table.
//
// From the replayed table the link builds the ipa::CallGraph and runs
// ipa::propagate, ipa::build_rows and ipa::build_dgn_project over it; it is
// the only caller of the propagation and of the row builder.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ipa/analyzer.hpp"
#include "ir/layout.hpp"
#include "rgn/dgn.hpp"
#include "serve/summary.hpp"
#include "support/diagnostics.hpp"

namespace ara::serve {

/// The one analysis option set, for the engine and the library alike.
struct LinkOptions {
  /// The paper's `-IPA:array_section:array_summary` (§V-B step 1): run the
  /// interprocedural propagation (IDEF/IUSE rows, transitive side effects).
  bool interprocedural = true;
  /// Degraded mode: some units failed to analyze and were dropped, so the
  /// survivors may legitimately call procedures no remaining unit defines.
  /// Unresolved externs are then warnings (the call's effects are simply
  /// unknown), not errors, and call edges into the missing procedures are
  /// skipped by propagation instead of aborting the link.
  bool degraded = false;
  ir::LayoutOptions layout;
};

/// The linked analysis (records, side effects, formal binding, call graph
/// and rows, as ipa::AnalysisResult) plus the link's own artifacts. The
/// call graph carries no WHIRL (CGNode::proc is null) and equals the graph
/// CallGraph::build makes from the whole-program compile.
struct LinkResult : ipa::AnalysisResult {
  bool ok = false;
  /// Reconstructed whole-program symbol table + sources (no WHIRL trees).
  std::unique_ptr<ir::Program> program;
  DiagnosticEngine diags;
  rgn::DgnProject project;
  std::string cfg_text;
};

/// Links `units` (in command-line order; `texts` holds the matching source
/// text for diagnostics and the project browser). Errors — duplicate
/// procedure definitions, unresolved external calls — are reported through
/// LinkResult::diags with ok == false.
[[nodiscard]] LinkResult link_units(std::vector<UnitSummary> units,
                                    const std::vector<std::string>& texts,
                                    const LinkOptions& opts, const std::string& name);

/// The library's analysis of a compiled program (driver::Compiler::analyze,
/// and tests that analyze a transformed ir::Program): summarize() per file,
/// then link_units(). The result's StIdx values index `program`'s own
/// symbol table, and each call-graph node's WHIRL is bound by proc_st.
/// Under `interprocedural == false` the side effects are the local ones.
[[nodiscard]] ipa::AnalysisResult analyze_program(const ir::Program& program,
                                                  const LinkOptions& opts = {});

}  // namespace ara::serve
