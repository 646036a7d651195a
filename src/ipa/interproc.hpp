// IPA: the main interprocedural phase. Propagates each procedure's array
// side effects bottom-up over the call graph, mapping formals to actuals in
// the Creusillet style ("later expanded by Creusillet to support mapping
// formal to actual parameters", §III): at every call site the callee's
// DEF/USE regions on its formal arrays are rewritten onto the caller's
// actual arrays, and symbolic bounds naming callee formal scalars are
// substituted with the actual argument expressions. The per-call-site
// results are the IDEF/IUSE rows of Fig 1. Recursion is handled by iterating
// to a fixpoint (region lists are bounded, so this terminates).
//
// This is the only propagation: the whole-program analyzer runs it over the
// graph CallGraph::build makes from WHIRL, and the serve engine's link phase
// over the same graph type rebuilt from unit summaries.
#pragma once

#include <map>

#include "ipa/callgraph.hpp"
#include "ipa/summary.hpp"

namespace ara::ipa {

struct Propagation {
  /// Transitive side effects per call-graph node index.
  std::vector<SideEffects> side_effects;
  /// IDEF/IUSE records generated at call sites (caller scope).
  std::vector<AccessRecord> interproc_records;
  /// Formal array -> the one actual array bound to it (kInvalidSt when
  /// ambiguous); used to resolve a FORMAL row's Mem_Loc to the actual's
  /// address.
  std::map<ir::StIdx, ir::StIdx> formal_binding;
  /// Work done, for the caller's own counters: call-site translations
  /// (fixed-point passes and the record sweep), callee (array, mode)
  /// summaries they produced, and fixed-point passes.
  std::uint64_t callsites_translated = 0;
  std::uint64_t summaries_propagated = 0;
  std::uint64_t passes = 0;
};

/// Runs the bottom-up propagation from each node's local side effects
/// (`local_effects[i]` belongs to node i, exactly as local analysis
/// produced it). `program` supplies the symbols the graph's StIdx values
/// name; no WHIRL tree is read.
[[nodiscard]] Propagation propagate(const ir::Program& program, const CallGraph& cg,
                                    const std::vector<SideEffects>& local_effects);

/// Resolves a formal's storage address by chasing its (unambiguous)
/// actual-binding chain; 0 when unbound or ambiguous.
[[nodiscard]] std::uint64_t resolve_addr(ir::StIdx st, const ir::Program& program,
                                         const std::map<ir::StIdx, ir::StIdx>& formal_binding);

}  // namespace ara::ipa
