// Two runs of the same workload must produce byte-identical counter values
// (timings excluded) — the fixed-seed discipline the fuzz harness already
// enforces, extended to the telemetry layer.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "difftest/generator.hpp"
#include "difftest/oracle.hpp"
#include "driver/compiler.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "serve/engine.hpp"

namespace ara::obs {
namespace {

namespace fs = std::filesystem;

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override {
    set_enabled(false);
    StatsRegistry::instance().reset();
    Timeline::instance().clear();
  }
};

std::vector<StatEntry> counters_after(const std::function<void()>& workload) {
  StatsRegistry::instance().reset();
  Timeline::instance().clear();
  workload();
  return StatsRegistry::instance().snapshot();
}

void expect_identical(const std::vector<StatEntry>& a, const std::vector<StatEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value) << "counter " << a[i].name << " differs between runs";
  }
}

TEST_F(DeterminismTest, WorkloadPipelineCountersAreRunInvariant) {
  const auto run = [] {
    driver::Compiler cc;
    const auto src = serve::read_source(fs::path(ARA_WORKLOADS_DIR) / "fig10_matrix.c", nullptr);
    ASSERT_TRUE(src.has_value());
    cc.add_source(src->name, src->text, src->lang);
    ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
    const auto result = cc.analyze();
    EXPECT_FALSE(result.rows.empty());
  };
  expect_identical(counters_after(run), counters_after(run));
}

TEST_F(DeterminismTest, FortranWorkloadCountersAreRunInvariant) {
  const auto run = [] {
    driver::Compiler cc;
    const auto src = serve::read_source(fs::path(ARA_WORKLOADS_DIR) / "fig1_add.f", nullptr);
    ASSERT_TRUE(src.has_value());
    cc.add_source(src->name, src->text, src->lang);
    ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
    const auto result = cc.analyze();
    EXPECT_FALSE(result.rows.empty());
  };
  expect_identical(counters_after(run), counters_after(run));
}

TEST_F(DeterminismTest, FixedSeedFuzzCountersAreRunInvariant) {
  // The fuzz-smoke discipline: same seeds, same generator, same counters —
  // including the dynamic-oracle and difftest namespaces.
  const auto run = [] {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      difftest::GenOptions gopts;
      gopts.seed = seed;
      gopts.lang = Language::C;
      const auto prog = difftest::generate(gopts);
      const auto rep = difftest::run_difftest(prog);
      EXPECT_TRUE(rep.sound()) << "seed " << seed << ": " << rep.error;
    }
  };
  expect_identical(counters_after(run), counters_after(run));
}

}  // namespace
}  // namespace ara::obs
