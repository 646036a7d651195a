// loop_fusion_advisor: the paper's Case 1 continuation (Fig 13). In LU's
// verify, XCR "has been used in two separate loops ... Once in the first
// one, and three times in the second. Remembering that the same region is
// being used, and knowing that no dependencies exist, we can merge the two
// loops and have one `!$omp parallel do` inserted right before the merged
// loop" — saving the re-fetch of XCR and one parallel-region startup.
#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <vector>

#include "dragon/advisor.hpp"
#include "driver/compiler.hpp"
#include "gpusim/transfer_model.hpp"
#include "serve/engine.hpp"

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  ara::driver::Compiler cc;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      if (const auto src = ara::serve::read_source(argv[i], nullptr)) {
        cc.add_source(src->name, src->text, src->lang);
      }
    }
  } else {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
      if (e.path().extension() == ".f") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
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

  const ara::gpusim::FusionModel model;
  std::cout << "Loop fusion candidates:\n\n";
  const auto advice = ara::dragon::advise_fusion(cc.program(), result);
  for (const auto& adv : advice) {
    std::cout << "  " << adv.message << "\n";
    const double before = model.time_unfused(adv.refetched_bytes);
    const double after = model.time_fused(adv.refetched_bytes);
    std::cout << "  cost model: " << std::scientific << std::setprecision(2) << before
              << "s unfused vs " << after << "s fused (" << std::fixed << std::setprecision(2)
              << before / after << "x)\n\n";
  }
  if (advice.empty()) std::cout << "  (none found)\n";
  return 0;
}
