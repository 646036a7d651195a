// Ablation: why the tool works at H-WHIRL. The paper keys its extraction to
// the high levels "since the form of array subscripting is preserved via
// ARRAY operator" (§IV-B) and dismisses low-level approaches because there
// "arrays lose their structures" (§II). We lower the same LU program to
// M-WHIRL (explicit address arithmetic) and measure what the identical
// region analysis recovers at each level.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "ir/mlower.hpp"
#include "serve/link.hpp"

namespace {

std::size_t array_region_rows(const ara::ipa::AnalysisResult& result) {
  std::size_t n = 0;
  for (const auto& row : result.rows) {
    if ((row.mode == "USE" || row.mode == "DEF") && row.tot_size > 1) ++n;
  }
  return n;
}

void print_reproduction() {
  auto cc = ara::bench::compile_lu();
  const auto h_result = cc->analyze();

  const ara::ir::Program m_program = ara::ir::lower_program_to_m(cc->program());
  const auto m_result = ara::serve::analyze_program(m_program);

  std::size_t h_nodes = 0, m_nodes = 0, h_arrays = 0, m_arrays = 0;
  for (const auto& p : cc->program().procedures) {
    h_nodes += p.tree->tree_size();
    h_arrays += ara::ir::count_array_nodes(*p.tree);
  }
  for (const auto& p : m_program.procedures) {
    m_nodes += p.tree->tree_size();
    m_arrays += ara::ir::count_array_nodes(*p.tree);
  }

  std::printf("=== WHIRL-level ablation on NAS LU ===\n");
  std::printf("  %-34s %12s %12s\n", "", "H-WHIRL", "M-WHIRL");
  std::printf("  %-34s %12zu %12zu\n", "tree nodes", h_nodes, m_nodes);
  std::printf("  %-34s %12zu %12zu\n", "explicit ARRAY operators", h_arrays, m_arrays);
  std::printf("  %-34s %12zu %12zu\n", "array USE/DEF region rows recovered",
              array_region_rows(h_result), array_region_rows(m_result));
  std::printf("  (the paper's point: the analysis must run where the ARRAY operator\n"
              "   still exists — at M level, \"arrays lose their structures\")\n\n");
}

void BM_LowerLuToM(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  for (auto _ : state) {
    auto m = ara::ir::lower_program_to_m(cc->program());
    benchmark::DoNotOptimize(m.procedures.size());
  }
}
BENCHMARK(BM_LowerLuToM)->Unit(benchmark::kMillisecond);

void BM_AnalyzeAtLevel(benchmark::State& state) {
  auto cc = ara::bench::compile_lu();
  const bool m_level = state.range(0) == 1;
  const ara::ir::Program m_program =
      m_level ? ara::ir::lower_program_to_m(cc->program()) : ara::ir::Program{};
  const ara::ir::Program& program = m_level ? m_program : cc->program();
  for (auto _ : state) {
    auto result = ara::serve::analyze_program(program);
    benchmark::DoNotOptimize(result.rows.size());
  }
  state.SetLabel(m_level ? "M-WHIRL" : "H-WHIRL");
}
BENCHMARK(BM_AnalyzeAtLevel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
