#include "ipa/interproc.hpp"

#include <algorithm>
#include <tuple>

#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {

ARA_STATISTIC(stat_unprojected_dims, "regions.unprojected_dims",
              "Declared/translated dimensions left UNPROJECTED");

using regions::AccessMode;
using regions::Bound;
using regions::DimAccess;
using regions::LinExpr;
using regions::Region;

namespace {

/// What a call site needs to know about its callee's symbols.
struct CalleeInfo {
  std::vector<ir::StIdx> formals;                          // by position (0-based)
  std::map<std::string, std::size_t> formal_scalar_pos;   // lowercase name -> position
  std::map<std::string, bool, std::less<>> local_scalar;  // lowercase names of local scalars
};

/// Callee info for every node, from one pass over the symbol table grouped
/// by owning procedure.
std::vector<CalleeInfo> callee_infos(const ir::Program& program, const CallGraph& cg) {
  std::map<ir::StIdx, std::uint32_t> node_of;
  for (std::uint32_t i = 0; i < cg.size(); ++i) node_of.emplace(cg.node(i).proc_st, i);
  std::vector<CalleeInfo> infos(cg.size());
  std::vector<std::vector<std::pair<std::uint32_t, ir::StIdx>>> formals(cg.size());
  for (ir::StIdx idx : program.symtab.all_sts()) {
    const ir::St& st = program.symtab.st(idx);
    if (st.owner_proc == ir::kInvalidSt) continue;
    const auto node = node_of.find(st.owner_proc);
    if (node == node_of.end()) continue;
    CalleeInfo& info = infos[node->second];
    const bool is_array = program.symtab.ty(st.ty).is_array();
    if (st.storage == ir::StStorage::Formal) {
      formals[node->second].emplace_back(st.formal_pos, idx);
      if (!is_array) info.formal_scalar_pos[to_lower(st.name)] = st.formal_pos - 1;
    } else if (st.storage == ir::StStorage::Local && !is_array) {
      info.local_scalar[to_lower(st.name)] = true;
    }
  }
  for (std::uint32_t i = 0; i < cg.size(); ++i) {
    std::sort(formals[i].begin(), formals[i].end());
    for (const auto& [pos, idx] : formals[i]) infos[i].formals.push_back(idx);
  }
  return infos;
}

/// Rewrites one callee region into a caller's context. `subst` maps callee
/// formal-scalar names to the actual argument's affine value (or nullopt
/// when the actual is not affine); names in `callee_locals` are meaningless
/// to the caller and poison their bound to UNPROJECTED. When `prov` is
/// non-null (the final IDEF/IUSE generation sweep, never the fixed-point
/// passes), every poisoned or inherited-imprecise dimension is attributed
/// to the provenance ledger.
Region translate_region(const Region& r,
                        const std::map<std::string, std::optional<LinExpr>, std::less<>>& subst,
                        const std::map<std::string, bool, std::less<>>& callee_locals,
                        const obs::ProvCtx* prov) {
  Region out;
  std::int32_t dim = 0;
  for (const DimAccess& d : r.dims()) {
    std::string poison_var;     // first variable that poisoned this dim
    bool poison_local = false;  // callee local (vs non-affine actual)
    auto translate_bound = [&](const Bound& b) -> Bound {
      if (!b.known()) return b;
      LinExpr e = b.expr;
      // Substitute formal scalars; poison callee locals. named_terms() keeps
      // the map era's name-sorted substitution order, which is observable
      // when two formals' actuals mention each other's names.
      for (const auto& [name, coef] : b.expr.named_terms()) {
        if (const auto it = subst.find(name); it != subst.end()) {
          if (!it->second) {
            if (poison_var.empty()) poison_var = name;
            return Bound::unprojected();
          }
          e = e.substituted(name, *it->second);
        } else if (callee_locals.count(name) != 0) {
          if (poison_var.empty()) {
            poison_var = name;
            poison_local = true;
          }
          return Bound::unprojected();
        }
      }
      return Bound::affine(b.kind, std::move(e));
    };
    DimAccess nd;
    nd.lb = translate_bound(d.lb);
    nd.ub = translate_bound(d.ub);
    nd.stride = d.stride;
    if ((d.lb.known() && !nd.lb.known()) || (d.ub.known() && !nd.ub.known())) {
      stat_unprojected_dims.bump();
    }
    if (prov != nullptr && obs::prov_capturing()) {
      if (!d.lb.known() || !d.ub.known()) {
        obs::prov_record(obs::CauseKind::CalleeImprecision, *prov, dim,
                         "callee summary dimension is already imprecise at the call site");
      } else if (!poison_var.empty()) {
        obs::prov_record(
            poison_local ? obs::CauseKind::CalleeLocalEscape : obs::CauseKind::ActualNotAffine,
            *prov, dim,
            poison_local ? "bound mentions callee-local '" + poison_var + "'"
                         : "actual bound to formal '" + poison_var + "' is not affine");
      }
    }
    out.push_dim(std::move(nd));
    ++dim;
  }
  return out;
}

/// The actual of a position the call site does not supply.
const Actual kAbsent{};

/// Records that `formal` is bound to `actual` at some call site; a second,
/// different actual makes the binding ambiguous.
void bind(std::map<ir::StIdx, ir::StIdx>& binding, ir::StIdx formal, ir::StIdx actual) {
  const auto [it, inserted] = binding.emplace(formal, actual);
  if (!inserted && it->second != actual) it->second = ir::kInvalidSt;
}

}  // namespace

Propagation propagate(const ir::Program& program, const CallGraph& cg,
                      const std::vector<SideEffects>& local_effects) {
  const ir::SymbolTable& symtab = program.symtab;
  Propagation result;
  result.side_effects = local_effects;
  const std::vector<CalleeInfo> infos = callee_infos(program, cg);

  // One call-site translation: map the callee's (array, mode) effects into
  // the caller's symbols; returns the translated effects. `attribute` turns
  // on provenance records — only the final IDEF/IUSE generation sweep sets
  // it, so the fixed-point passes never duplicate cause records.
  auto translate_call = [&](std::uint32_t caller, const CallSite& cs, bool attribute)
      -> std::vector<std::tuple<ir::StIdx, AccessMode, ModeRegions>> {
    std::vector<std::tuple<ir::StIdx, AccessMode, ModeRegions>> out;
    ++result.callsites_translated;
    const CalleeInfo& callee_info = infos[cs.callee];
    auto actual = [&](std::size_t pos) -> const Actual& {
      return pos < cs.actuals.size() ? cs.actuals[pos] : kAbsent;
    };

    // Formal-scalar substitution environment.
    std::map<std::string, std::optional<LinExpr>, std::less<>> subst;
    for (const auto& [name, pos] : callee_info.formal_scalar_pos) subst[name] = actual(pos).affine;

    for (const auto& [key, mr] : result.side_effects[cs.callee].effects) {
      const auto& [callee_st, mode] = key;
      const ir::St& st = symtab.st(callee_st);
      ir::StIdx caller_st = ir::kInvalidSt;
      if (st.storage == ir::StStorage::Global) {
        caller_st = callee_st;
      } else if (st.storage == ir::StStorage::Formal) {
        caller_st = actual(st.formal_pos - 1).array;
        if (caller_st != ir::kInvalidSt && symtab.ty(st.ty).is_array()) {
          bind(result.formal_binding, callee_st, caller_st);
        }
      }
      if (caller_st == ir::kInvalidSt) continue;

      const obs::ProvCtx ctx{symtab.st(cg.node(caller).proc_st).name, symtab.st(caller_st).name,
                             program.sources.name(cg.node(caller).file), cs.line};
      const obs::ProvCtx* prov = attribute && obs::prov_capturing() ? &ctx : nullptr;
      ModeRegions translated;
      translated.refs = mr.refs;
      for (const Region& r : mr.regions) {
        // Ambient attribution for widenings inside merge — final sweep only,
        // so fixed-point passes don't duplicate records.
        std::optional<obs::ProvScope> scope;
        if (prov != nullptr) scope.emplace(ctx);
        translated.merge(translate_region(r, subst, callee_info.local_scalar, prov), 0);
      }
      out.emplace_back(caller_st, mode, std::move(translated));
    }
    return out;
  };

  const std::vector<std::uint32_t> order = cg.bottom_up();
  const int max_passes = cg.has_cycle() ? 5 : 1;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    bool changed = false;
    for (std::uint32_t n : order) {
      obs::Span proc_span(symtab.st(cg.node(n).proc_st).name, "ipa");
      SideEffects next = local_effects[n];
      for (const CallSite& cs : cg.node(n).callsites) {
        if (cs.callee == kNoNode) continue;
        for (auto& [st, mode, mr] : translate_call(n, cs, false)) {
          next.effects[{st, mode}].merge_all(mr);
        }
      }
      if (!(next == result.side_effects[n])) {
        result.side_effects[n] = std::move(next);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Also record formal bindings for call sites whose callee never touches the
  // formal (pure pass-through): walk all call sites once more.
  for (const CGNode& node : cg.nodes()) {
    for (const CallSite& cs : node.callsites) {
      if (cs.callee == kNoNode) continue;
      const std::vector<ir::StIdx>& formals = infos[cs.callee].formals;
      for (std::size_t pos = 0; pos < formals.size() && pos < cs.actuals.size(); ++pos) {
        if (cs.actuals[pos].array == ir::kInvalidSt ||
            !symtab.ty(symtab.st(formals[pos]).ty).is_array()) {
          continue;
        }
        bind(result.formal_binding, formals[pos], cs.actuals[pos].array);
      }
    }
  }

  // Generate IDEF/IUSE rows per call site from the callee's final effects.
  for (std::uint32_t n = 0; n < cg.size(); ++n) {
    for (const CallSite& cs : cg.node(n).callsites) {
      if (cs.callee == kNoNode) continue;
      for (auto& [st, mode, mr] : translate_call(n, cs, true)) {
        bool first = true;
        for (Region& r : mr.regions) {
          AccessRecord rec;
          rec.array = st;
          rec.mode = mode;
          rec.interproc = true;
          rec.region = std::move(r);
          rec.refs = first ? mr.refs : 0;
          first = false;
          rec.scope_proc = cg.node(n).proc_st;
          rec.file = cg.node(cs.callee).file;
          rec.line = cs.line;
          result.interproc_records.push_back(std::move(rec));
        }
      }
    }
  }
  return result;
}

std::uint64_t resolve_addr(ir::StIdx st, const ir::Program& program,
                           const std::map<ir::StIdx, ir::StIdx>& formal_binding) {
  ir::StIdx cur = st;
  for (int depth = 0; depth < 16; ++depth) {
    const ir::St& sym = program.symtab.st(cur);
    if (sym.storage != ir::StStorage::Formal) return sym.addr;
    const auto it = formal_binding.find(cur);
    if (it == formal_binding.end() || it->second == ir::kInvalidSt) return 0;
    cur = it->second;
  }
  return 0;
}

}  // namespace ara::ipa
