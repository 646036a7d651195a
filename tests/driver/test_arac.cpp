// In-process tests of the arac CLI (driver/cli.hpp): flag handling, the
// always-render-diagnostics fix, and the telemetry outputs the acceptance
// command `arac --trace out.json --stats <src>` must produce.
#include "driver/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/stats.hpp"
#include "support/json.hpp"

namespace ara::driver {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int rc = 0;
  std::string out;
  std::string err;
};

CliRun arac(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun r;
  r.rc = run_arac(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string workload(const char* name) {
  return (fs::path(ARA_WORKLOADS_DIR) / name).string();
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AracCli, HelpExitsZero) {
  const CliRun r = arac({"--help"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("usage: arac"), std::string::npos);
}

TEST(AracCli, NoInputIsUsageError) {
  // Usage errors are total failures (exit 1); exit 2 is reserved for
  // partial batch results (see docs/robustness.md).
  const CliRun r = arac({"--stats"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("no input files"), std::string::npos);
}

TEST(AracCli, UnknownOptionIsUsageError) {
  const CliRun r = arac({"--frobnicate", workload("fig10_matrix.c")});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(AracCli, MissingFileFails) {
  const CliRun r = arac({"/nonexistent/nope.c"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("cannot read"), std::string::npos);
}

TEST(AracCli, AnalyzesWorkloadAndPrintsRegionTable) {
  const CliRun r = arac({workload("fig10_matrix.c")});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("region rows"), std::string::npos);
  EXPECT_NE(r.out.find("aarr"), std::string::npos);
  EXPECT_TRUE(r.err.empty()) << r.err;
}

TEST(AracCli, CompileErrorRendersDiagnosticsAndFails) {
  const fs::path dir = fs::temp_directory_path() / "arac_err_test";
  fs::create_directories(dir);
  std::ofstream(dir / "bad.f") << "subroutine s\n  do i = \nend\n";
  const CliRun r = arac({"--export-dir", (dir / "out").string(), (dir / "bad.f").string()});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
  fs::remove_all(dir);
}

TEST(AracCli, WarningsSurviveSuccessfulCompiles) {
  // The old smoke binary only rendered diagnostics on failure; a warning on
  // a successful compile (here: unknown extension fallback) must reach
  // stderr while the run still succeeds.
  const fs::path dir = fs::temp_directory_path() / "arac_warn_test";
  fs::create_directories(dir);
  std::ofstream(dir / "prog.ftn") << "subroutine s\n  integer :: i\n  i = 1\nend\n";
  const CliRun r = arac({"--quiet", (dir / "prog.ftn").string()});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.err.find("warning"), std::string::npos);
  EXPECT_NE(r.err.find("unrecognized extension"), std::string::npos);
  fs::remove_all(dir);
}

TEST(AracCli, TraceAndStatsProduceValidTelemetryFiles) {
  // The ISSUE 3 acceptance command, in-process.
  const fs::path dir = fs::temp_directory_path() / "arac_telemetry_test";
  fs::create_directories(dir);
  const fs::path trace = dir / "out.json";
  const CliRun r = arac({"--quiet", "--trace", trace.string(), "--stats", "--export-dir",
                         dir.string(), workload("fig10_matrix.c")});
  ASSERT_EQ(r.rc, 0) << r.err;

  std::string err;
  const auto trace_json = json::parse(slurp(trace), &err);
  ASSERT_TRUE(trace_json.has_value()) << err;
  EXPECT_TRUE(trace_json->is_array());
  EXPECT_GE(trace_json->array.size(), 8u);

  const auto stats_json = json::parse(slurp(dir / "fig10_matrix.stats.json"), &err);
  ASSERT_TRUE(stats_json.has_value()) << err;
  const json::Value* counters = stats_json->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->object.size(), 10u);

  // --stats prints the counter table on stdout.
  EXPECT_NE(r.out.find("frontend.tokens"), std::string::npos);
  fs::remove_all(dir);
}

TEST(AracCli, TimeReportRendersPhaseTree) {
  const CliRun r = arac({"--quiet", "--time-report", workload("fig10_matrix.c")});
  ASSERT_EQ(r.rc, 0) << r.err;
  // The batch engine's phases: per-unit front end, then the link.
  EXPECT_NE(r.out.find("Phase"), std::string::npos);
  for (const char* phase : {"batch", "units", "parse", "link-propagate", "link-rows"}) {
    EXPECT_NE(r.out.find(phase), std::string::npos) << phase << "\n" << r.out;
  }
}

TEST(AracCli, TelemetryFlagRestoresGlobalState) {
  ASSERT_FALSE(obs::enabled());
  (void)arac({"--quiet", "--time-report", workload("fig10_matrix.c")});
  EXPECT_FALSE(obs::enabled());
}

/// Two tiny Fortran units, so the run-ledger flags exercise the batch path.
fs::path write_ledger_units(const char* dirname) {
  const fs::path dir = fs::temp_directory_path() / dirname;
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name : {"ua", "ub"}) {
    std::ofstream(dir / (std::string(name) + ".f"))
        << "subroutine " << name << "(x)\n"
        << "  integer, dimension(1:100) :: x\n"
        << "  integer :: i\n"
        << "  do i = 1, 100\n"
        << "    x(i) = i\n"
        << "  end do\n"
        << "end subroutine " << name << "\n";
  }
  return dir;
}

TEST(AracCli, MetricsOutWritesHistogramsAndDerivedEventLog) {
  const fs::path dir = write_ledger_units("arac_metrics_test");
  const fs::path metrics = dir / "m.json";
  const CliRun r = arac({"--quiet", "--jobs", "2", "--metrics-out", metrics.string(),
                         (dir / "ua.f").string(), (dir / "ub.f").string()});
  ASSERT_EQ(r.rc, 0) << r.err;

  std::string err;
  const auto doc = json::parse(slurp(metrics), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("schema")->string, "ara.metrics.v1");
  const json::Value* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* parse_hist = hists->find("serve.unit_parse_ns");
  ASSERT_NE(parse_hist, nullptr) << "batch runs must record per-unit parse latency";
  EXPECT_DOUBLE_EQ(parse_hist->find("count")->number, 2.0);
  for (const char* field : {"p50", "p90", "p99"}) {
    EXPECT_NE(parse_hist->find(field), nullptr) << field;
  }

  // With no explicit --events, a batch --metrics-out run derives the event
  // log path next to the metrics file.
  const std::string events = slurp(dir / "m.events.jsonl");
  EXPECT_NE(events.find("\"schema\": \"ara.events.v1\""), std::string::npos) << events;
  EXPECT_NE(events.find("\"events\": 10"), std::string::npos)
      << "5 lifecycle events per unit:\n" << events;
  fs::remove_all(dir);
}

TEST(AracCli, ExplicitEventsPathOverridesTheDerivedOne) {
  const fs::path dir = write_ledger_units("arac_events_test");
  const CliRun r = arac({"--quiet", "--jobs", "2", "--metrics-out", (dir / "m.json").string(),
                         "--events", (dir / "e.jsonl").string(), (dir / "ua.f").string(),
                         (dir / "ub.f").string()});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_TRUE(fs::exists(dir / "e.jsonl"));
  EXPECT_FALSE(fs::exists(dir / "m.events.jsonl"));
  fs::remove_all(dir);
}

TEST(AracCli, ProfileWritesAFoldedFile) {
  const fs::path dir = write_ledger_units("arac_profile_test");
  const fs::path folded = dir / "p.folded";
  const CliRun r = arac({"--quiet", "--profile", folded.string(), "--profile-interval-us",
                         "50", workload("fig10_matrix.c")});
  ASSERT_EQ(r.rc, 0) << r.err;
  ASSERT_TRUE(fs::exists(folded));
  // Samples are timing-dependent, so only the shape is asserted: every
  // non-empty line is "stack count". (run_ledger_cli.cmake pins non-empty
  // output on the 20-unit LU workload.)
  std::istringstream in(slurp(folded));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    for (const char c : line.substr(space + 1)) EXPECT_TRUE(c >= '0' && c <= '9') << line;
  }
  fs::remove_all(dir);
}

TEST(AracCli, BadProfileIntervalIsUsageError) {
  const CliRun r = arac({"--profile-interval-us", "nope", workload("fig10_matrix.c")});
  EXPECT_EQ(r.rc, 1);
  const CliRun missing = arac({"--metrics-out"});
  EXPECT_EQ(missing.rc, 1);
}

TEST(AracCli, NoIpaSkipsInterproceduralRows) {
  const CliRun with = arac({workload("fig1_add.f")});
  const CliRun without = arac({"--no-ipa", workload("fig1_add.f")});
  ASSERT_EQ(with.rc, 0) << with.err;
  ASSERT_EQ(without.rc, 0) << without.err;
  EXPECT_NE(with.out.find("IUSE"), std::string::npos);
  EXPECT_EQ(without.out.find("IUSE"), std::string::npos);
}

}  // namespace
}  // namespace ara::driver
