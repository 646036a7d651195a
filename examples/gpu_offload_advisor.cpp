// gpu_offload_advisor: the paper's Case 2 (Fig 14 / Tables III and IV).
// Analyzes the NAS-LU workload, finds loops whose arrays are only partially
// accessed, and prints the sub-array `!$acc region copyin(...)` directive the
// user should insert — "only these portions of U will be offloaded to GPU...
// this should considerably reduce data transfers between host and GPU" —
// together with the cost model's estimated speedup over whole-array copyin.
#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <vector>

#include "dragon/advisor.hpp"
#include "driver/compiler.hpp"
#include "serve/engine.hpp"

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  ara::driver::Compiler cc;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      const auto src = ara::serve::read_source(argv[i], nullptr);
      if (!src) {
        std::cerr << "cannot read " << argv[i] << "\n";
        return 1;
      }
      cc.add_source(src->name, src->text, src->lang);
    }
  } else {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
      if (e.path().extension() == ".f") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());  // deterministic file order
    for (const auto& f : files) {
      if (const auto src = ara::serve::read_source(f, nullptr)) {
        cc.add_source(src->name, src->text, src->lang);
      }
    }
  }
  if (!cc.compile()) {
    std::cerr << cc.diagnostics().render();
    return 1;
  }
  const ara::ipa::AnalysisResult result = cc.analyze();

  auto advice = ara::dragon::advise_offload(cc.program(), result);
  // Largest transfer saving first.
  std::sort(advice.begin(), advice.end(),
            [](const ara::dragon::OffloadAdvice& a, const ara::dragon::OffloadAdvice& b) {
              return a.full_bytes - a.region_bytes > b.full_bytes - b.region_bytes;
            });

  std::cout << "Sub-array offload opportunities (largest saving first):\n\n";
  for (const auto& adv : advice) {
    std::cout << adv.proc << ":" << adv.loop_line << "\n  insert: " << adv.directive
              << "\n  transfers: " << adv.full_bytes << " B (whole arrays) -> "
              << adv.region_bytes << " B (accessed regions), est. speedup " << std::fixed
              << std::setprecision(1) << adv.est_speedup << "x\n\n";
  }
  if (advice.empty()) std::cout << "  (none found)\n";
  return 0;
}
