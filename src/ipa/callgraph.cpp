#include "ipa/callgraph.hpp"

#include <algorithm>
#include <map>

#include "ipa/wn_affine.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {

std::vector<Actual> digest_actuals(const ir::WN& call, const ir::SymbolTable& symtab) {
  std::vector<Actual> out(call.kid_count());
  for (std::size_t k = 0; k < call.kid_count(); ++k) {
    const ir::WN* parm = call.kid(k);
    if (parm->kid_count() == 0) continue;
    const ir::WN& a = *parm->kid(0);
    if ((a.opr() == ir::Opr::Lda || a.opr() == ir::Opr::Ldid) && a.st_idx() != ir::kInvalidSt &&
        symtab.ty(symtab.st(a.st_idx()).ty).is_array()) {
      out[k].array = a.st_idx();
    } else {
      out[k].affine = wn_to_affine(a, symtab);
    }
  }
  return out;
}

CallGraph CallGraph::build(const ir::Program& program) {
  std::vector<CGNode> nodes;
  std::map<ir::StIdx, std::uint32_t> index;
  for (const ir::ProcedureIR& p : program.procedures) {
    index[p.proc_st] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(CGNode{p.proc_st, p.file, &p, {}, {}, false});
  }
  for (CGNode& node : nodes) {
    if (!node.proc->tree) continue;
    node.proc->tree->walk([&](const ir::WN& wn) {
      if (wn.opr() != ir::Opr::Call || wn.st_idx() == ir::kInvalidSt) return true;
      const ir::St& callee = program.symtab.st(wn.st_idx());
      if (callee.sclass != ir::StClass::Proc) return true;
      CallSite site{kNoNode, wn.linenum().line, digest_actuals(wn, program.symtab), {}};
      if (const auto it = index.find(wn.st_idx()); it != index.end()) {
        site.callee = it->second;
      } else {
        site.unresolved = to_lower(callee.name);
      }
      node.callsites.push_back(std::move(site));
      return true;
    });
  }
  return from_nodes(std::move(nodes));
}

CallGraph CallGraph::from_nodes(std::vector<CGNode> nodes) {
  CallGraph cg;
  cg.nodes_ = std::move(nodes);
  for (std::uint32_t i = 0; i < cg.nodes_.size(); ++i) {
    for (const CallSite& cs : cg.nodes_[i].callsites) {
      if (cs.callee == kNoNode) continue;
      auto& callers = cg.nodes_[cs.callee].callers;
      if (std::find(callers.begin(), callers.end(), i) == callers.end()) callers.push_back(i);
    }
  }
  for (CGNode& n : cg.nodes_) n.is_root = n.callers.empty();

  // Cycle detection (recursion) via coloring.
  std::vector<int> color(cg.nodes_.size(), 0);  // 0 white, 1 grey, 2 black
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t start = 0; start < cg.nodes_.size(); ++start) {
    if (color[start] != 0) continue;
    stack.emplace_back(start, 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [n, edge] = stack.back();
      if (edge < cg.nodes_[n].callsites.size()) {
        const std::uint32_t next = cg.nodes_[n].callsites[edge].callee;
        ++edge;
        if (next == kNoNode) continue;
        if (color[next] == 1) {
          cg.has_cycle_ = true;
        } else if (color[next] == 0) {
          color[next] = 1;
          stack.emplace_back(next, 0);
        }
      } else {
        color[n] = 2;
        stack.pop_back();
      }
    }
  }
  return cg;
}

void CallGraph::bind_whirl(const ir::Program& program) {
  std::map<ir::StIdx, const ir::ProcedureIR*> whirl;
  for (const ir::ProcedureIR& p : program.procedures) whirl.emplace(p.proc_st, &p);
  for (CGNode& node : nodes_) {
    const auto it = whirl.find(node.proc_st);
    node.proc = it != whirl.end() ? it->second : nullptr;
  }
}

std::size_t CallGraph::edge_count() const {
  std::size_t n = 0;
  for (const CGNode& node : nodes_) n += node.callsites.size();
  return n;
}

std::optional<std::uint32_t> CallGraph::find(ir::StIdx proc_st) const {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].proc_st == proc_st) return i;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> CallGraph::find(std::string_view name,
                                             const ir::Program& program) const {
  const auto st = program.symtab.find_proc(name);
  return st ? find(*st) : std::nullopt;
}

std::vector<std::uint32_t> CallGraph::preorder() const {
  std::vector<std::uint32_t> order;
  std::vector<bool> seen(nodes_.size(), false);
  auto visit = [&](auto&& self, std::uint32_t n) -> void {
    if (seen[n]) return;
    seen[n] = true;
    order.push_back(n);
    for (const CallSite& cs : nodes_[n].callsites) {
      if (cs.callee != kNoNode) self(self, cs.callee);
    }
  };
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_root) visit(visit, i);
  }
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) visit(visit, i);
  return order;
}

std::vector<std::uint32_t> CallGraph::bottom_up() const {
  std::vector<std::uint32_t> order;
  std::vector<int> state(nodes_.size(), 0);
  auto visit = [&](auto&& self, std::uint32_t n) -> void {
    if (state[n] != 0) return;  // grey (cycle) or done
    state[n] = 1;
    for (const CallSite& cs : nodes_[n].callsites) {
      if (cs.callee != kNoNode && state[cs.callee] == 0) self(self, cs.callee);
    }
    state[n] = 2;
    order.push_back(n);
  };
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) visit(visit, i);
  return order;
}

}  // namespace ara::ipa
