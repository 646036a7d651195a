// dynamic_density: the §VI future-work feature — dynamic array region
// information on an (virtual) OpenMP thread basis. Runs the Fig 1 workload
// under the WHIRL interpreter and prints, for each array: the static
// References column next to the actual element-touch counts, the runtime
// region per thread, and whether the per-thread regions are disjoint (the
// data-privatization signal the paper aims at).
#include <filesystem>
#include <iostream>

#include "driver/compiler.hpp"
#include "interp/interp.hpp"
#include "serve/engine.hpp"
#include "support/string_utils.hpp"

int main(int argc, char** argv) {
  const std::filesystem::path source =
      argc > 1 ? argv[1] : std::filesystem::path(ARA_WORKLOADS_DIR) / "fig1_add.f";
  const std::string entry = argc > 2 ? argv[2] : "add";
  const int threads = argc > 3 ? std::atoi(argv[3]) : 4;

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
  const auto analysis = cc.analyze();

  ara::interp::InterpOptions opts;
  opts.virtual_threads = threads;
  ara::interp::Interpreter interp(cc.program(), opts);
  ara::interp::DynamicSummary summary;
  const auto run = interp.run(entry, &summary);
  if (!run.ok) {
    std::cerr << "interpreter: " << run.error << "\n";
    return 1;
  }
  std::cout << "executed " << run.steps << " statements of " << entry << " with " << threads
            << " virtual threads\n\n";

  for (const auto& [key, entry_data] : summary.entries()) {
    const auto& [array_st, mode] = key;
    const ara::ir::St& st = cc.program().symtab.st(array_st);
    if (!cc.program().symtab.ty(st.ty).is_array()) continue;
    std::cout << st.name << " (" << ara::regions::to_string(mode) << ")\n";
    std::cout << "  dynamic element touches: " << entry_data.refs << "\n";
    if (const auto& sec = entry_data.touched.section(mode)) {
      std::cout << "  runtime region: " << sec->str() << "\n";
    }
    for (const auto& [tid, section] : entry_data.per_thread) {
      if (const auto& sec = section.section(mode)) {
        std::cout << "    thread " << tid << ": " << sec->str() << " ("
                  << entry_data.refs_per_thread.at(tid) << " touches)\n";
      }
    }
    std::cout << "  per-thread regions disjoint: "
              << (summary.threads_disjoint(array_st, mode) ? "yes — privatization candidate"
                                                           : "no")
              << "\n\n";
  }
  return 0;
}
