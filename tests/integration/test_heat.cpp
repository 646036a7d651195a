// Multi-file C integration: the heat-diffusion workload through the full
// pipeline — cross-TU globals, interprocedural propagation into a C main,
// interior-region offload advice, per-file reference counting, and the
// interpreter as ground truth.
#include <gtest/gtest.h>

#include <filesystem>

#include "dragon/advisor.hpp"
#include "driver/compiler.hpp"
#include "interp/interp.hpp"
#include "lno/dependence.hpp"
#include "serve/engine.hpp"
#include "support/string_utils.hpp"

namespace ara {
namespace {

namespace fs = std::filesystem;

class HeatTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cc_ = new driver::Compiler();
    const fs::path dir = fs::path(ARA_WORKLOADS_DIR) / "heat";
    for (const char* name : {"heat_kernels.c", "heat_main.c"}) {
      const auto src = serve::read_source(dir / name, nullptr);
      ASSERT_TRUE(src.has_value()) << name;
      cc_->add_source(src->name, src->text, src->lang);
    }
    ASSERT_TRUE(cc_->compile()) << cc_->diagnostics().render();
    result_ = new ipa::AnalysisResult(cc_->analyze());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete cc_;
    result_ = nullptr;
    cc_ = nullptr;
  }

  static driver::Compiler* cc_;
  static ipa::AnalysisResult* result_;
};

driver::Compiler* HeatTest::cc_ = nullptr;
ipa::AnalysisResult* HeatTest::result_ = nullptr;

TEST_F(HeatTest, CrossFileCallGraph) {
  EXPECT_EQ(result_->callgraph.size(), 4u);  // main + 3 kernels
  const auto main_idx = result_->callgraph.find("main", cc_->program());
  ASSERT_TRUE(main_idx.has_value());
  EXPECT_TRUE(result_->callgraph.node(*main_idx).is_root);
  EXPECT_EQ(result_->callgraph.node(*main_idx).callsites.size(), 3u);
}

TEST_F(HeatTest, InteriorRegionRows) {
  // smooth reads grid[0..129] (stencil halo) but writes next_grid[1..128].
  bool found = false;
  for (const auto& row : result_->rows) {
    if (iequals(row.array, "next_grid") && row.mode == "DEF" &&
        row.file == "heat_kernels.o") {
      EXPECT_EQ(row.lb, "1|1");
      EXPECT_EQ(row.ub, "128|128");
      EXPECT_EQ(row.dim_size, "130|130");
      EXPECT_EQ(row.size_bytes, 130 * 130 * 8);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HeatTest, InterprocEffectsReachMain) {
  // main itself never names grid, but the IDEF/IUSE rows expose the kernels'
  // side effects at its call sites.
  std::size_t idef = 0;
  for (const auto& row : result_->rows) {
    if (row.mode == "IDEF" && iequals(row.array, "grid")) ++idef;
  }
  EXPECT_GE(idef, 1u);
}

TEST_F(HeatTest, OffloadAdvisorProposesCopyClauses) {
  const auto advice = dragon::advise_offload(cc_->program(), *result_);
  const dragon::OffloadAdvice* smooth_adv = nullptr;
  for (const auto& a : advice) {
    if (a.proc == "smooth") smooth_adv = &a;
  }
  ASSERT_NE(smooth_adv, nullptr);
  EXPECT_EQ(smooth_adv->directive.rfind("#pragma acc region for", 0), 0u);
  EXPECT_NE(smooth_adv->directive.find("copyin(grid[0:129][0:129])"), std::string::npos);
  EXPECT_NE(smooth_adv->directive.find("copyout(next_grid[1:128][1:128])"),
            std::string::npos);
}

TEST_F(HeatTest, StencilLoopsAreParallelizable) {
  const auto loops = lno::find_parallel_loops(cc_->program(), result_->callgraph);
  std::size_t parallel = 0;
  for (const auto& l : loops) {
    if (l.proc == "smooth" || l.proc == "copy_back" || l.proc == "init_grid") {
      parallel += l.verdict == lno::LoopVerdict::Parallelizable ? 1 : 0;
    }
  }
  // init_grid has two outermost loops; smooth and copy_back one each.
  EXPECT_EQ(parallel, 4u);
}

TEST_F(HeatTest, InterpreterConfirmsTheDiffusion) {
  interp::Interpreter interp(cc_->program());
  interp::DynamicSummary summary;
  const auto r = interp.run("main", &summary);
  ASSERT_TRUE(r.ok) << r.error;
  // Heat leaks from the west wall into the interior; far cells stay cold.
  const double near = interp.array_element("grid", {64, 1}).value_or(-1);
  const double far = interp.array_element("grid", {64, 120}).value_or(-1);
  EXPECT_GT(near, 0.0);
  EXPECT_DOUBLE_EQ(far, 0.0);
  // Dynamic check: next_grid was only ever written in the interior.
  ir::StIdx next_st = ir::kInvalidSt;
  for (ir::StIdx idx : cc_->program().symtab.all_sts()) {
    if (iequals(cc_->program().symtab.st(idx).name, "next_grid")) next_st = idx;
  }
  const auto* defs = summary.entry(next_st, regions::AccessMode::Def);
  ASSERT_NE(defs, nullptr);
  EXPECT_FALSE(defs->exact.may_access(regions::AccessMode::Def, {0, 5}));
  EXPECT_TRUE(defs->exact.may_access(regions::AccessMode::Def, {1, 5}));
  EXPECT_FALSE(defs->exact.may_access(regions::AccessMode::Def, {129, 5}));
}

}  // namespace
}  // namespace ara
