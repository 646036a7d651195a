// End-to-end tests of the batch-analysis engine (serve::run_batch): output
// bytes must be independent of --jobs and of cache hits vs misses, must
// match the monolithic pipeline, and incremental re-analysis must recompile
// exactly the edited units (verified through the serve.* obs counters).
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "driver/compiler.hpp"
#include "obs/stats.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"

namespace ara::serve {
namespace {

namespace fs = std::filesystem;

// Fig 1 of the paper, split across three translation units so the engine
// has real cross-unit calls (add.f calls procedures it cannot see).
constexpr const char* kP1 = R"(
subroutine p1(a, j)
  integer, dimension(1:200, 1:200) :: a
  integer :: j, i, k
  do i = 1, 100
    do k = 1, 100
      a(i, k) = i + k + j
    end do
  end do
end subroutine p1
)";

constexpr const char* kP2 = R"(
subroutine p2(a, j)
  integer, dimension(1:200, 1:200) :: a
  integer :: j, i, k, s
  s = 0
  do i = 101, 200
    do k = 101, 200
      s = s + a(i, k)
    end do
  end do
end subroutine p2
)";

constexpr const char* kAdd = R"(
subroutine add
  integer, dimension(1:200, 1:200) :: a
  integer :: m, j
  m = 10
  do j = 1, m
    call p1(a, j)
    call p2(a, j)
  end do
end subroutine add
)";

std::vector<SourceBuffer> fig1_units() {
  return {{"p1.f", kP1, Language::Fortran},
          {"p2.f", kP2, Language::Fortran},
          {"add.f", kAdd, Language::Fortran}};
}

std::uint64_t counter(const std::string& name) {
  for (const obs::StatEntry& e : obs::StatsRegistry::instance().snapshot()) {
    if (e.name == name) return e.value;
  }
  return 0;
}

/// Every artifact the engine exports, as bytes.
struct Artifacts {
  std::string rgn;
  std::string dgn;
  std::string cfg;
};

Artifacts artifacts_of(const BatchResult& r) {
  return {rgn::write_rgn(r.link.rows), rgn::write_dgn(r.link.project), r.link.cfg_text};
}

TEST(Batch, OutputIsIndependentOfJobCount) {
  const std::vector<SourceBuffer> sources = fig1_units();
  BatchOptions opts;
  opts.jobs = 1;
  const BatchResult serial = run_batch(sources, opts, "fig1");
  ASSERT_TRUE(serial.ok);
  EXPECT_FALSE(serial.link.rows.empty());
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    opts.jobs = jobs;
    const BatchResult parallel = run_batch(sources, opts, "fig1");
    ASSERT_TRUE(parallel.ok);
    const Artifacts a = artifacts_of(serial);
    const Artifacts b = artifacts_of(parallel);
    EXPECT_EQ(a.rgn, b.rgn) << "--jobs " << jobs;
    EXPECT_EQ(a.dgn, b.dgn) << "--jobs " << jobs;
    EXPECT_EQ(a.cfg, b.cfg) << "--jobs " << jobs;
  }
}

// The smallest case shrunk from a generated corpus on which the two
// pipelines once disagreed: pc9's local USE list on gc9 overflows, and the
// hull collapse leaves a duplicate region that the link used to merge away
// before propagation, so the IUSE rows at hc7's call split differently.
constexpr const char* kU7 = R"(void hc7(void) {
  pc9();
}
)";

constexpr const char* kU9 = R"(double gc9[64][64];
double t9[64];
void hc9(void) {
  int i, j;
  for (j = 1; j < 63; j++) {
    for (i = 1; i < 63; i++) {
      gc9[i][j] = gc9[i][j - 1] * 0.5;
    }
  }
}
void pc9(void) {
  int i, j;
  double s;
  for (j = 0; j < 61; j++) {
    for (i = j; i < 64; i++) {
      gc9[i][j] = gc9[j][i] * 0.5;
      s = s + gc9[i][j];
      gc9[i][j] = gc9[i - 1][j] + gc9[i + 1][j] + 0.5 * t9[i];
      if (i > j) {
        gc9[i + j][j] = gc9[i - j + 31][i];
      }
    }
  }
  for (j = 0; j < 64; j++) {
    for (i = j; i < 64; i++) {
      s = s + gc9[i][j];
      gc9[i][j] = gc9[i - 1][j] + gc9[i + 1][j] + 0.5 * t9[i];
    }
    for (i = 0; i < 64; i += 2) {
      gc9[i][j] = gc9[i][j] + gc9[i][j];
    }
  }
  hc9();
}
)";

std::vector<SourceBuffer> workload_units(const std::string& dir, const std::string& ext,
                                         Language lang) {
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / dir)) {
    if (e.path().extension() == ext) paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceBuffer> out;
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({p.filename().string(), text.str(), lang});
  }
  return out;
}

TEST(Batch, MatchesMonolithicPipeline) {
  // The batch engine's linked output must be byte-identical to the
  // whole-program pipeline (the library's reference implementation) on the
  // same sources, at any job count: .rgn, .dgn and .cfg.
  const std::vector<std::vector<SourceBuffer>> inputs = {
      fig1_units(),
      {{"u7.c", kU7, Language::C}, {"u9.c", kU9, Language::C}},
      workload_units("lu", ".f", Language::Fortran)};
  for (const std::vector<SourceBuffer>& sources : inputs) {
    driver::Compiler cc;
    for (const SourceBuffer& s : sources) cc.add_source(s.name, s.text, s.lang);
    ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
    const ipa::AnalysisResult mono = cc.analyze();
    const std::string mono_rgn = rgn::write_rgn(mono.rows);
    const std::string mono_dgn =
        rgn::write_dgn(ipa::build_dgn_project(cc.program(), mono, "proj"));
    const std::string mono_cfg = cfg::write_cfg(cfg::build_all(cc.program()));

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      BatchOptions opts;
      opts.jobs = jobs;
      const BatchResult batch = run_batch(sources, opts, "proj");
      ASSERT_TRUE(batch.ok);
      EXPECT_EQ(rgn::write_rgn(batch.link.rows), mono_rgn)
          << sources.front().name << " --jobs " << jobs;
      EXPECT_EQ(rgn::write_dgn(batch.link.project), mono_dgn)
          << sources.front().name << " --jobs " << jobs;
      EXPECT_EQ(batch.link.cfg_text, mono_cfg) << sources.front().name << " --jobs " << jobs;
    }
  }
}

TEST(Batch, LinkedCallGraphEqualsWholeProgramGraph) {
  // The link rebuilds ipa::CallGraph from summaries; it must be the graph
  // CallGraph::build makes from WHIRL, down to every digested actual.
  const std::vector<std::vector<SourceBuffer>> inputs = {
      workload_units("lu", ".f", Language::Fortran),
      workload_units("heat", ".c", Language::C),
      {{"ping.f",
        "subroutine ping(v, n)\n  integer :: n\n  double precision :: v(10)\n"
        "  v(n) = 0.0\n  if (n .gt. 1) then\n    call pong(v, n - 1)\n  end if\n"
        "end subroutine ping\n",
        Language::Fortran},
       {"pong.f",
        "subroutine pong(w, m)\n  integer :: m\n  double precision :: w(10)\n"
        "  w(m) = 1.0\n  call ping(w, m)\nend subroutine pong\n",
        Language::Fortran}}};
  std::size_t actuals = 0;
  for (const std::vector<SourceBuffer>& sources : inputs) {
    ASSERT_FALSE(sources.empty());
    driver::Compiler cc;
    for (const SourceBuffer& s : sources) cc.add_source(s.name, s.text, s.lang);
    ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
    const ipa::CallGraph whole = ipa::CallGraph::build(cc.program());

    const BatchResult batch = run_batch(sources, BatchOptions{}, "graph");
    ASSERT_TRUE(batch.ok);
    const ipa::CallGraph& linked = batch.link.callgraph;
    const std::string& input = sources.front().name;
    ASSERT_EQ(linked.size(), whole.size()) << input;
    EXPECT_EQ(linked.has_cycle(), whole.has_cycle()) << input;
    EXPECT_EQ(linked.bottom_up(), whole.bottom_up()) << input;
    for (std::uint32_t i = 0; i < whole.size(); ++i) {
      const ipa::CGNode& w = whole.node(i);
      const ipa::CGNode& l = linked.node(i);
      EXPECT_EQ(l.proc_st, w.proc_st) << input << " node " << i;
      EXPECT_EQ(l.file, w.file) << input << " node " << i;
      EXPECT_EQ(l.callsites, w.callsites) << input << " node " << i;
      EXPECT_EQ(l.callers, w.callers) << input << " node " << i;
      EXPECT_EQ(l.is_root, w.is_root) << input << " node " << i;
      EXPECT_EQ(l.proc, nullptr);
      for (const ipa::CallSite& cs : w.callsites) actuals += cs.actuals.size();
    }
    EXPECT_GT(linked.edge_count(), 0u) << input;
  }
  EXPECT_GT(actuals, 0u);  // LU passes arrays and affine scalars
  // The recursive pair exercises the cycle flag on both sides.
  const BatchResult rec = run_batch(inputs.back(), BatchOptions{}, "graph");
  EXPECT_TRUE(rec.link.callgraph.has_cycle());
}

TEST(Batch, IncrementalReanalysisRecompilesOnlyTheEditedUnit) {
  const fs::path dir = fs::temp_directory_path() / "ara_batch_incr";
  fs::remove_all(dir);
  obs::set_enabled(true);

  // Ten units: p1..p8 clones plus the fig1 pair, all reachable from add.
  std::vector<SourceBuffer> sources = fig1_units();
  for (int i = 3; i <= 10; ++i) {
    const std::string n = std::to_string(i);
    sources.push_back({"q" + n + ".f",
                       "subroutine q" + n + "(x)\n"
                       "  integer, dimension(1:50) :: x\n"
                       "  integer :: i\n"
                       "  do i = 1, 50\n"
                       "    x(i) = i\n"
                       "  end do\n"
                       "end subroutine q" + n + "\n",
                       Language::Fortran});
  }

  BatchOptions opts;
  opts.jobs = 4;
  opts.cache_dir = dir.string();

  obs::StatsRegistry::instance().reset();
  const BatchResult cold = run_batch(sources, opts, "incr");
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, sources.size());
  EXPECT_EQ(counter("serve.units_analyzed"), sources.size());

  // Unchanged rerun: everything replays from the cache.
  obs::StatsRegistry::instance().reset();
  const BatchResult warm = run_batch(sources, opts, "incr");
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache_hits, sources.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(counter("serve.units_analyzed"), 0u);
  for (const UnitReport& u : warm.units) EXPECT_EQ(u.status, UnitStatus::Cached);

  // Edit one of the ten: exactly that unit re-analyzes.
  sources[4].text += "! touched\n";
  obs::StatsRegistry::instance().reset();
  const BatchResult incr = run_batch(sources, opts, "incr");
  ASSERT_TRUE(incr.ok);
  EXPECT_EQ(incr.cache_hits, sources.size() - 1);
  EXPECT_EQ(incr.cache_misses, 1u);
  EXPECT_EQ(counter("serve.units_analyzed"), 1u);
  EXPECT_EQ(incr.units[4].status, UnitStatus::Analyzed);

  // Incremental output must equal a cold, cache-less run of the same edit.
  BatchOptions nocache;
  nocache.jobs = 1;
  const BatchResult fresh = run_batch(sources, nocache, "incr");
  ASSERT_TRUE(fresh.ok);
  const Artifacts a = artifacts_of(incr);
  const Artifacts b = artifacts_of(fresh);
  EXPECT_EQ(a.rgn, b.rgn);
  EXPECT_EQ(a.dgn, b.dgn);
  EXPECT_EQ(a.cfg, b.cfg);

  obs::set_enabled(false);
  fs::remove_all(dir);
}

TEST(Batch, FailedUnitReportsDiagnosticsInInputOrder) {
  std::vector<SourceBuffer> sources = fig1_units();
  sources[1].text = "subroutine broken(\n";  // parse error
  BatchOptions opts;
  opts.jobs = 4;
  const BatchResult r = run_batch(sources, opts, "bad");
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.units.size(), 3u);
  EXPECT_EQ(r.units[0].status, UnitStatus::Analyzed);
  EXPECT_EQ(r.units[1].status, UnitStatus::Failed);
  EXPECT_EQ(r.units[1].source_name, "p2.f");
  EXPECT_FALSE(r.units[1].diagnostics.empty());
  EXPECT_EQ(r.units[2].status, UnitStatus::Analyzed);
}

TEST(Batch, UnresolvedExternFailsAtLink) {
  // add.f calls p2 but no unit defines it.
  std::vector<SourceBuffer> sources = fig1_units();
  sources.erase(sources.begin() + 1);
  BatchOptions opts;
  const BatchResult r = run_batch(sources, opts, "unresolved");
  EXPECT_FALSE(r.ok);
  const std::string diags = r.link.diags.render();
  EXPECT_NE(diags.find("unknown procedure 'p2'"), std::string::npos) << diags;
}

TEST(Batch, DegradedLinkKeepsCallsToMissingCallees) {
  // p2.f fails to compile: the survivors link, the call to p2 stays in the
  // graph (and the .dgn) by name, and only p1's effects reach add.
  std::vector<SourceBuffer> sources = fig1_units();
  sources[1].text = "subroutine p2(a, j)\n  do i = 1,\nend subroutine p2\n";
  const BatchResult r = run_batch(sources, BatchOptions{}, "degraded");
  ASSERT_TRUE(r.partial);
  const ipa::CallGraph& cg = r.link.callgraph;
  ASSERT_EQ(cg.size(), 2u);  // p1, add
  const std::vector<ipa::CallSite>& calls = cg.node(1).callsites;
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].callee, 0u);
  EXPECT_EQ(calls[1].callee, ipa::kNoNode);
  EXPECT_EQ(calls[1].unresolved, "p2");
  EXPECT_NE(rgn::write_dgn(r.link.project).find("add|p2|8"), std::string::npos);
  std::size_t idef = 0;
  for (const rgn::RegionRow& row : r.link.rows) {
    EXPECT_NE(row.mode, "IUSE");  // only p2 uses a
    idef += row.mode == "IDEF" ? 1 : 0;
  }
  EXPECT_EQ(idef, 1u);
}

TEST(Batch, DuplicateDefinitionFailsAtLink) {
  std::vector<SourceBuffer> sources = fig1_units();
  sources.push_back({"p1_again.f", kP1, Language::Fortran});
  BatchOptions opts;
  const BatchResult r = run_batch(sources, opts, "dup");
  EXPECT_FALSE(r.ok);
  const std::string diags = r.link.diags.render();
  EXPECT_NE(diags.find("redefinition of procedure 'p1'"), std::string::npos) << diags;
}

TEST(Batch, NoIpaModeLinksWithoutInterprocRecords) {
  BatchOptions opts;
  opts.interprocedural = false;
  const BatchResult r = run_batch(fig1_units(), opts, "noipa");
  ASSERT_TRUE(r.ok);
  for (const rgn::RegionRow& row : r.link.rows) {
    EXPECT_NE(row.mode, "IDEF") << row.array;
    EXPECT_NE(row.mode, "IUSE") << row.array;
  }
}

}  // namespace
}  // namespace ara::serve
