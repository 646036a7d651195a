// parallelization_advisor: the Fig 1 scenario. Compiles the Add/P1/P2
// example, shows the interprocedural IDEF/IUSE rows at the two call sites,
// and asks the advisor whether the calls can run concurrently — they can,
// because P1's defined region (1:100,1:100) and P2's used region
// (101:200,101:200) are provably disjoint (Fourier–Motzkin emptiness of the
// intersection).
#include <filesystem>
#include <iostream>

#include "dragon/advisor.hpp"
#include "driver/compiler.hpp"
#include "serve/engine.hpp"
#include "support/string_utils.hpp"

namespace {

// The .rgn row packs per-dimension LB/UB/Stride with '|'; unpack into the
// paper's triplet notation "(1:100:1, 1:100:1)".
std::string triplets(const ara::rgn::RegionRow& row) {
  const auto lb = ara::split(row.lb, '|');
  const auto ub = ara::split(row.ub, '|');
  const auto st = ara::split(row.stride, '|');
  std::string out = "(";
  for (std::size_t i = 0; i < lb.size(); ++i) {
    if (i != 0) out += ", ";
    out += lb[i] + ":" + (i < ub.size() ? ub[i] : "?") + ":" + (i < st.size() ? st[i] : "1");
  }
  return out + ")";
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path source =
      argc > 1 ? argv[1] : std::filesystem::path(ARA_WORKLOADS_DIR) / "fig1_add.f";

  ara::driver::Compiler cc;
  const auto src = ara::serve::read_source(source, nullptr);
  if (!src) {
    std::cerr << "cannot read " << source << "\n";
    return 1;
  }
  cc.add_source(src->name, src->text, src->lang);
  if (!cc.compile()) {
    std::cerr << cc.diagnostics().render();
    return 1;
  }
  const ara::ipa::AnalysisResult result = cc.analyze();

  std::cout << "Interprocedural rows (IDEF/IUSE at call sites):\n";
  for (const auto& row : result.rows) {
    if (row.mode != "IDEF" && row.mode != "IUSE") continue;
    std::cout << "  line " << row.line << ": " << row.mode << " of " << row.array
              << triplets(row) << "\n";
  }

  std::cout << "\nAdvisor verdicts:\n";
  for (const auto& adv : ara::dragon::advise_parallel_calls(cc.program(), result)) {
    std::cout << "  loop at " << adv.proc << ':' << adv.loop_line << " calling ";
    for (std::size_t i = 0; i < adv.callees.size(); ++i) {
      std::cout << (i ? ", " : "") << adv.callees[i];
    }
    std::cout << "\n    " << (adv.parallelizable ? "PARALLELIZABLE" : "NOT PARALLELIZABLE")
              << ": " << adv.reason << "\n";
  }
  return 0;
}
