// Provenance determinism through the real CLI entry point: the
// .provenance.jsonl export (ara.prov.v1) must be byte-identical whatever
// the worker count and whatever the cache state — cold, warm, or bypassed
// — because records ride the v3 summary cache and the ledger merges them
// in (unit, seq) order. Also covers the --explain surface on the fig10
// workload (the ISSUE acceptance walkthrough).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
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

class ProvDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_prov_determinism";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// An LU run exporting .provenance.jsonl to `<sub>.jsonl`.
  std::vector<std::string> prov_run(const std::string& sub, std::vector<std::string> extra) {
    std::vector<std::string> args = {"--quiet", "--name", "lu", "--provenance-out",
                                     jsonl(sub).string()};
    args.insert(args.end(), extra.begin(), extra.end());
    for (const std::string& src : lu_sources()) args.push_back(src);
    return args;
  }

  fs::path jsonl(const std::string& sub) const { return dir_ / (sub + ".jsonl"); }

  fs::path dir_;
};

TEST_F(ProvDeterminismTest, JobCountDoesNotChangeProvenanceBytes) {
  // A plain run and every --jobs value write the same bytes; so do --loops
  // runs, whose verdicts sit at one fixed (unit, seq) position whatever the
  // worker count or the cache state.
  const std::string cache = (dir_ / "cache").string();
  ASSERT_EQ(arac(prov_run("plain", {})).rc, 0);
  ASSERT_EQ(arac(prov_run("j1", {"--jobs", "1"})).rc, 0);
  ASSERT_EQ(arac(prov_run("j8", {"--jobs", "8"})).rc, 0);
  ASSERT_EQ(arac(prov_run("loops", {"--loops"})).rc, 0);
  ASSERT_EQ(arac(prov_run("loops_j1", {"--loops", "--jobs", "1"})).rc, 0);
  ASSERT_EQ(arac(prov_run("loops_j8", {"--loops", "--jobs", "8"})).rc, 0);
  ASSERT_EQ(arac(prov_run("loops_cold", {"--loops", "--cache-dir", cache})).rc, 0);
  ASSERT_EQ(arac(prov_run("loops_warm", {"--loops", "--jobs", "8", "--cache-dir", cache})).rc,
            0);
  const std::string plain = slurp(jsonl("plain"));
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, slurp(jsonl("j1")));
  EXPECT_EQ(plain, slurp(jsonl("j8")));
  EXPECT_NE(plain.find("\"schema\": \"ara.prov.v1\""), std::string::npos);
  EXPECT_NE(plain.find("\"kind\": "), std::string::npos) << "LU must yield at least one cause";
  EXPECT_EQ(plain.find("loop_not_parallel"), std::string::npos)
      << "loop verdicts are computed only under --loops";

  // The loop verdicts are appended after every other record, each under the
  // link unit.
  const std::string loops = slurp(jsonl("loops"));
  const std::string body = plain.substr(plain.find('\n') + 1);
  const std::string loop_body = loops.substr(loops.find('\n') + 1);
  ASSERT_EQ(loop_body.compare(0, body.size(), body), 0) << loops;
  std::istringstream tail(loop_body.substr(body.size()));
  std::size_t loop_records = 0;
  for (std::string line; std::getline(tail, line); ++loop_records) {
    EXPECT_EQ(line.rfind("{\"unit\": \"link\", ", 0), 0u) << line;
    EXPECT_NE(line.find("\"kind\": \"loop_not_parallel\""), std::string::npos) << line;
  }
  EXPECT_EQ(loop_records, 18u) << "LU keeps 18 loops serial";
  for (const char* sub : {"loops_j1", "loops_j8", "loops_cold", "loops_warm"}) {
    EXPECT_EQ(loops, slurp(jsonl(sub))) << sub;
  }
}

TEST_F(ProvDeterminismTest, WarmCacheReplaysProvenanceByteIdentically) {
  const std::string cache = (dir_ / "cache").string();
  ASSERT_EQ(arac(prov_run("cold", {"--jobs", "4", "--cache-dir", cache})).rc, 0);
  ASSERT_EQ(arac(prov_run("warm", {"--jobs", "4", "--cache-dir", cache})).rc, 0);
  ASSERT_EQ(arac(prov_run("nocache", {"--jobs", "4"})).rc, 0);
  const std::string cold = slurp(jsonl("cold"));
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, slurp(jsonl("warm"))) << "warm-cache replay must be byte-identical";
  EXPECT_EQ(cold, slurp(jsonl("nocache"))) << "caching must not change the records";
}

TEST_F(ProvDeterminismTest, ExplainNamesACauseForEveryStayedSerialLoop) {
  const std::string fig10 = (fs::path(ARA_WORKLOADS_DIR) / "fig10_matrix.c").string();
  const CliRun r = arac({"--quiet", "--explain", "--loops", fig10});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.out.find("stayed serial"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("fig10_matrix.c:"), std::string::npos)
      << "each cause cites its source line:\n"
      << r.out;
  EXPECT_NE(r.out.find("DEF at line"), std::string::npos)
      << "the blocking dependence pair is named:\n"
      << r.out;
}

TEST_F(ProvDeterminismTest, ParallelRunExplainsLoopsLikeAPlainRun) {
  // --loops builds the whole-program IR as a by-product at any --jobs
  // value: the "stayed serial" block matches a plain run's, and the region
  // causes still render after it.
  std::vector<std::string> plain_args = {"--quiet", "--explain", "--loops"};
  for (const std::string& src : lu_sources()) plain_args.push_back(src);
  std::vector<std::string> jobs_args = plain_args;
  jobs_args.insert(jobs_args.begin() + 3, {"--jobs", "2"});
  const CliRun plain = arac(plain_args);
  const CliRun r = arac(jobs_args);
  ASSERT_EQ(plain.rc, 0) << plain.err;
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_EQ(r.err, "");
  EXPECT_EQ(plain.out, r.out);
  EXPECT_NE(r.out.find("explain: 18 loop(s) stayed serial:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("precision-loss cause"), std::string::npos) << r.out;
}

}  // namespace
}  // namespace ara::driver
