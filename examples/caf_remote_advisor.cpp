// caf_remote_advisor: the paper's PGAS future-work feature (§VI) as a
// runnable tool. Compiles a Coarray-Fortran-style source, shows every remote
// (co-indexed) access with its region and target image, and prints the
// communication-aggregation advice.
#include <filesystem>
#include <iostream>

#include "dragon/advisor.hpp"
#include "dragon/table.hpp"
#include "driver/compiler.hpp"
#include "serve/engine.hpp"

int main(int argc, char** argv) {
  const std::filesystem::path source =
      argc > 1 ? argv[1] : std::filesystem::path(ARA_WORKLOADS_DIR) / "caf_halo.f";

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
  const auto result = cc.analyze();

  std::cout << "Remote coarray accesses (RUSE = one-sided GET, RDEF = PUT):\n\n";
  bool any = false;
  for (const auto& row : result.rows) {
    if (row.mode != "RUSE" && row.mode != "RDEF") continue;
    any = true;
    std::cout << "  " << row.scope << ":" << row.line << "  " << row.mode << "  " << row.array
              << "(" << row.lb << ":" << row.ub << ":" << row.stride << ")[" << row.image
              << "]\n";
  }
  if (!any) std::cout << "  (none — no co-indexed accesses in this program)\n";

  std::cout << "\nCommunication advice:\n\n";
  const auto advice = ara::dragon::advise_remote(cc.program(), result);
  for (const auto& adv : advice) {
    std::cout << "  " << adv.message << "\n";
  }
  if (advice.empty()) std::cout << "  (none)\n";
  return 0;
}
