// Exit-code contract tests (satellite of the robustness ISSUE). arac's
// single error sink promises exactly three outcomes:
//   0  clean success
//   1  total failure — usage errors, compile/link failures, resource
//      limits, internal errors, a batch with no survivors
//   2  partial success — a batch run dropped units but the survivors
//      linked; <name>.failures.json names the casualties
// One test per path, driven through driver::run_arac in-process.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/cli.hpp"

namespace ara {
namespace {

namespace fs = std::filesystem;

constexpr const char* kGoodUnit =
    "subroutine good(a)\n"
    "  integer, dimension(1:8) :: a\n"
    "  integer :: i\n"
    "  do i = 1, 8\n"
    "    a(i) = i\n"
    "  end do\n"
    "end subroutine good\n";

class ExitCodes : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_exit_codes";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream(p) << text;
    return p;
  }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return driver::run_arac(args, out_, err_);
  }

  fs::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(ExitCodes, CleanMonolithicRunExitsZero) {
  const fs::path src = write("good.f", kGoodUnit);
  EXPECT_EQ(run({"--quiet", src.string()}), 0) << err_.str();
}

TEST_F(ExitCodes, CleanBatchRunExitsZero) {
  const fs::path a = write("a.f", kGoodUnit);
  EXPECT_EQ(run({"--quiet", "--jobs", "2", a.string()}), 0) << err_.str();
}

TEST_F(ExitCodes, UsageErrorExitsOne) {
  EXPECT_EQ(run({"--definitely-not-a-flag"}), 1);
  EXPECT_EQ(run({}), 1);  // no inputs
  EXPECT_EQ(run({"--jobs", "frog", "x.f"}), 1);
  EXPECT_EQ(run({"--max-depth", "-3", "x.f"}), 1);
}

TEST_F(ExitCodes, MonolithicCompileErrorExitsOne) {
  const fs::path src = write("bad.f", "subroutine oops(\n");
  EXPECT_EQ(run({"--quiet", "--export-dir", (dir_ / "out").string(), src.string()}), 1);
}

TEST_F(ExitCodes, BatchWithNoSurvivorsExitsOne) {
  // Every unit fails: nothing to link, so this is a total failure, not a
  // partial one — exit 1, and the failure report still names the unit.
  const fs::path bad = write("bad.f", "subroutine oops(\n");
  EXPECT_EQ(run({"--quiet", "--jobs", "2", "--export-dir", (dir_ / "out").string(),
                 bad.string()}),
            1);
  EXPECT_NE(err_.str().find("bad.f"), std::string::npos) << err_.str();
  EXPECT_TRUE(fs::exists(dir_ / "out" / "bad.failures.json")) << err_.str();
}

TEST_F(ExitCodes, PartialBatchExitsTwoAndWritesFailuresJson) {
  const fs::path good = write("good.f", kGoodUnit);
  const fs::path bad = write("bad.f", "subroutine oops(\n");
  const fs::path exp = dir_ / "out";
  EXPECT_EQ(run({"--quiet", "--jobs", "2", "--export-dir", exp.string(), good.string(),
                 bad.string()}),
            2);
  EXPECT_NE(err_.str().find("bad.f"), std::string::npos) << err_.str();

  // The failure report names exactly the failed unit, with its kind.
  const fs::path report = exp / "good.failures.json";
  ASSERT_TRUE(fs::exists(report)) << err_.str();
  std::ifstream in(report);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"schema\": \"ara-failures-1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_code\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unit\": \"bad.f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"compile\""), std::string::npos) << json;
  EXPECT_EQ(json.find("good.f\""), std::string::npos)
      << "survivors must not appear as failures: " << json;

  // The survivor's region table was still exported.
  EXPECT_TRUE(fs::exists(exp / "good.rgn"));
}

TEST_F(ExitCodes, InjectedFaultOnOnlyUnitExitsOne) {
  const fs::path src = write("only.f", kGoodUnit);
  EXPECT_EQ(run({"--quiet", "--jobs", "1", "--failpoints", "unit.analyze=io",
                 "--export-dir", (dir_ / "out").string(), src.string()}),
            1);
  EXPECT_NE(err_.str().find("only.f"), std::string::npos) << err_.str();
}

TEST_F(ExitCodes, PersistentExportFaultExitsOne) {
  const fs::path src = write("good.f", kGoodUnit);
  EXPECT_EQ(run({"--quiet", "--export-dir", (dir_ / "out").string(), "--failpoints",
                 "export.write=io", src.string()}),
            1);
  EXPECT_NE(err_.str().find("cannot write"), std::string::npos) << err_.str();
}

TEST_F(ExitCodes, TransientExportFaultIsRetriedToSuccess) {
  // One injected fault (*1): the bounded-backoff retry absorbs it and the
  // run stays clean, with the artifact intact.
  const fs::path src = write("good.f", kGoodUnit);
  EXPECT_EQ(run({"--quiet", "--export-dir", (dir_ / "out").string(), "--failpoints",
                 "export.write=io*1", src.string()}),
            0)
      << err_.str();
  EXPECT_TRUE(fs::exists(dir_ / "out" / "good.rgn"));
}

TEST_F(ExitCodes, MalformedFailpointSpecIsAUsageError) {
  const fs::path src = write("good.f", kGoodUnit);
  EXPECT_EQ(run({"--quiet", "--failpoints", "cache.read=frobnicate", src.string()}), 1);
  EXPECT_NE(err_.str().find("failpoint"), std::string::npos) << err_.str();
}

}  // namespace
}  // namespace ara
