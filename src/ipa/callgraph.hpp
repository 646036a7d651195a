// The IPA call graph: "each node in this graph represents a procedure and
// the caller-callee relationships are expressed by the edges. This call
// graph should be traversed to extract the necessary array analysis
// information" (§IV-A). Each node carries the procedure's symbol-table
// handle and defining file, plus its WHIRL tree when the program's WHIRL
// is in memory (Fig 4 / Algorithm 1). CallGraph::build makes the graph from
// WHIRL to drive local analysis; the link phase (serve/link.hpp) rebuilds
// the same graph from unit summaries, which is why call sites carry their
// actuals pre-digested rather than as CALL nodes, and the library binds
// its nodes back to the compile's WHIRL (bind_whirl).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "regions/linexpr.hpp"

namespace ara::ipa {

/// One call-site actual argument, digested for formal->actual mapping: a
/// whole-array actual, an affine scalar over the caller's variables, or
/// neither (absent or untranslatable).
struct Actual {
  ir::StIdx array = ir::kInvalidSt;
  std::optional<regions::LinExpr> affine;

  friend bool operator==(const Actual&, const Actual&) = default;
};

/// Digests a CALL node's actuals by position: the one helper behind
/// CallGraph::build, whose call sites the unit summaries carry to the link.
[[nodiscard]] std::vector<Actual> digest_actuals(const ir::WN& call,
                                                 const ir::SymbolTable& symtab);

/// Callee slot of a call site whose target is not in the graph: in a single
/// unit's graph, a call to a procedure another unit defines; in a unit
/// summary, every call until the link resolves it by name; in a degraded
/// batch link, a call whose defining unit failed to analyze.
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

struct CallSite {
  std::uint32_t callee = kNoNode;  // index into CallGraph::nodes()
  std::uint32_t line = 0;
  std::vector<Actual> actuals;     // by position
  std::string unresolved;          // lowercase callee name when callee == kNoNode

  friend bool operator==(const CallSite&, const CallSite&) = default;
};

struct CGNode {
  ir::StIdx proc_st = ir::kInvalidSt;
  FileId file = kInvalidFileId;           // defining translation unit
  const ir::ProcedureIR* proc = nullptr;  // WHIRL; null in a linked graph until bind_whirl
  std::vector<CallSite> callsites;        // out-edges, in source order
  std::vector<std::uint32_t> callers;     // in-edges (node indices, deduplicated)
  bool is_root = false;                   // no callers (program entry)
};

class CallGraph {
 public:
  [[nodiscard]] static CallGraph build(const ir::Program& program);

  /// Completes a graph whose nodes and resolved call sites are given:
  /// derives callers, roots and the cycle flag exactly as build() does.
  [[nodiscard]] static CallGraph from_nodes(std::vector<CGNode> nodes);

  /// Points every node's `proc` at its WHIRL in `program`, by proc_st.
  void bind_whirl(const ir::Program& program);

  [[nodiscard]] const std::vector<CGNode>& nodes() const { return nodes_; }
  [[nodiscard]] const CGNode& node(std::uint32_t i) const { return nodes_.at(i); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const;

  [[nodiscard]] std::optional<std::uint32_t> find(ir::StIdx proc_st) const;
  [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name,
                                                  const ir::Program& program) const;

  /// Pre-order from the roots (Algorithm 1 traverses the call graph
  /// pre-order); unreachable nodes are appended at the end.
  [[nodiscard]] std::vector<std::uint32_t> preorder() const;

  /// Callees-before-callers order for bottom-up summary propagation. Cycles
  /// (recursion) are broken arbitrarily; `has_cycle` reports whether any
  /// back edge was seen, in which case propagation must iterate.
  [[nodiscard]] std::vector<std::uint32_t> bottom_up() const;
  [[nodiscard]] bool has_cycle() const { return has_cycle_; }

 private:
  std::vector<CGNode> nodes_;
  bool has_cycle_ = false;
};

}  // namespace ara::ipa
