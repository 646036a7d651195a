// CLI-level tests of the batch engine flags (`arac --jobs/--cache-dir/
// --no-cache`): the determinism regression — .rgn and .stats.json bytes
// must not depend on the worker count — plus cache behavior and flag
// validation through the real driver entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "driver/cli.hpp"

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

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lu_sources() {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    if (e.path().extension() == ".f") out.push_back(e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ServeCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_serve_cli";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::string> export_run(const std::string& sub,
                                      std::vector<std::string> extra) {
    std::vector<std::string> args = {"--quiet", "--stats", "--name", "lu",
                                     "--export-dir", (dir_ / sub).string()};
    args.insert(args.end(), extra.begin(), extra.end());
    for (const std::string& src : lu_sources()) args.push_back(src);
    return args;
  }

  fs::path dir_;
};

/// Masks the histogram sample statistics in a .stats.json — latency
/// measurements vary run to run by design (the repo's determinism contract
/// covers counters, histogram names and sample counts, never timings).
std::string mask_timings(std::string text) {
  static const std::regex timing_fields(
      "\"(sum|min|max|mean|p50|p90|p99)\": [0-9.]+");
  return std::regex_replace(text, timing_fields, "\"$1\": _");
}

TEST_F(ServeCliTest, JobCountDoesNotChangeAnyOutputByte) {
  ASSERT_EQ(arac(export_run("j1", {"--jobs", "1"})).rc, 0);
  ASSERT_EQ(arac(export_run("j8", {"--jobs", "8"})).rc, 0);
  for (const char* ext : {".rgn", ".dgn", ".cfg"}) {
    const std::string a = slurp(dir_ / "j1" / ("lu" + std::string(ext)));
    const std::string b = slurp(dir_ / "j8" / ("lu" + std::string(ext)));
    ASSERT_FALSE(a.empty()) << ext;
    EXPECT_EQ(a, b) << ext;
  }
  // .stats.json: counters, histogram names and sample counts are --jobs
  // independent; the latency values themselves are measurements.
  const std::string a = slurp(dir_ / "j1" / "lu.stats.json");
  const std::string b = slurp(dir_ / "j8" / "lu.stats.json");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(mask_timings(a), mask_timings(b));
}

TEST_F(ServeCliTest, PlainRunMatchesParallelRun) {
  // A plain run is the batch engine at one inline worker: every artifact,
  // .stats.json counters included, matches a --jobs 4 run.
  ASSERT_EQ(arac(export_run("plain", {})).rc, 0);
  ASSERT_EQ(arac(export_run("j4", {"--jobs", "4"})).rc, 0);
  for (const char* ext : {".rgn", ".dgn", ".cfg"}) {
    const std::string a = slurp(dir_ / "plain" / ("lu" + std::string(ext)));
    ASSERT_FALSE(a.empty()) << ext;
    EXPECT_EQ(a, slurp(dir_ / "j4" / ("lu" + std::string(ext)))) << ext;
  }
  EXPECT_EQ(mask_timings(slurp(dir_ / "plain" / "lu.stats.json")),
            mask_timings(slurp(dir_ / "j4" / "lu.stats.json")));
}

TEST_F(ServeCliTest, WarmCacheRunIsByteIdenticalAndReportsHits) {
  const std::string cache = (dir_ / "cache").string();
  ASSERT_EQ(arac(export_run("cold", {"--jobs", "4", "--cache-dir", cache})).rc, 0);
  CliRun warm;
  {
    std::vector<std::string> args = {"--name", "lu", "--export-dir", (dir_ / "warm").string(),
                                     "--jobs", "4", "--cache-dir", cache};
    for (const std::string& src : lu_sources()) args.push_back(src);
    warm = arac(args);
  }
  ASSERT_EQ(warm.rc, 0);
  EXPECT_NE(warm.out.find("cache: 20 hits, 0 misses"), std::string::npos) << warm.out;
  for (const char* ext : {".rgn", ".dgn", ".cfg"}) {
    EXPECT_EQ(slurp(dir_ / "cold" / ("lu" + std::string(ext))),
              slurp(dir_ / "warm" / ("lu" + std::string(ext))))
        << ext;
  }
}

TEST_F(ServeCliTest, NoCacheIgnoresExistingEntries) {
  const std::string cache = (dir_ / "cache").string();
  ASSERT_EQ(arac(export_run("seed", {"--jobs", "2", "--cache-dir", cache})).rc, 0);
  std::vector<std::string> args = {"--quiet", "--name", "lu", "--jobs", "2",
                                   "--cache-dir", cache, "--no-cache"};
  for (const std::string& src : lu_sources()) args.push_back(src);
  const CliRun r = arac(args);
  EXPECT_EQ(r.rc, 0);
  EXPECT_EQ(r.out.find("cache:"), std::string::npos);  // no hit/miss line
}

TEST_F(ServeCliTest, InvalidJobsIsAUsageError) {
  // Usage errors exit 1; 2 is reserved for partial batch results.
  EXPECT_EQ(arac({"--jobs", "0", "x.f"}).rc, 1);
  EXPECT_EQ(arac({"--jobs", "-3", "x.f"}).rc, 1);
  EXPECT_EQ(arac({"--jobs", "many", "x.f"}).rc, 1);
  EXPECT_EQ(arac({"--jobs"}).rc, 1);
}

/// The *.failures.json reports directly inside `dir`.
std::vector<std::string> failure_reports(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".failures.json")) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(ServeCliTest, CompileErrorInOneUnitFailsTheBatch) {
  const fs::path bad = dir_ / "bad.f";
  std::ofstream(bad) << "subroutine broken(\n";
  const std::vector<std::string> cwd_reports = failure_reports(fs::current_path());
  const CliRun r =
      arac({"--quiet", "--jobs", "2", "--export-dir", (dir_ / "out").string(), bad.string()});
  EXPECT_EQ(r.rc, 1);
  EXPECT_FALSE(r.err.empty());
  // The failure report lands in the export dir, not the working directory.
  EXPECT_TRUE(fs::exists(dir_ / "out" / "bad.failures.json"));
  EXPECT_EQ(failure_reports(fs::current_path()), cwd_reports);
}

}  // namespace
}  // namespace ara::driver
