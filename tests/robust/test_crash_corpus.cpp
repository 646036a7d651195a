// Crash-corpus replay (satellite of the robustness ISSUE): every file in
// tests/crash_corpus/ goes through (a) the serve engine's error barrier via
// difftest::survives_or_what — no exception may escape — and (b) the full
// arac CLI — the exit code must obey the 0/1/2 contract, never a throw.
// `arafuzz --crash-hunt --corpus tests/crash_corpus` grows the corpus; this
// test makes each crasher a permanent regression check.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "difftest/crashhunt.hpp"
#include "driver/cli.hpp"

#ifndef ARA_CRASH_CORPUS_DIR
#error "build must define ARA_CRASH_CORPUS_DIR"
#endif

namespace ara {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(ARA_CRASH_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".c" || ext == ".f" || ext == ".f90") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CrashCorpus, CorpusIsNotEmpty) {
  EXPECT_GE(corpus_files().size(), 7u)
      << "seed corpus missing — looked in " << ARA_CRASH_CORPUS_DIR;
}

TEST(CrashCorpus, EveryFileSurvivesTheUnitBarrier) {
  for (const fs::path& file : corpus_files()) {
    const Language lang =
        file.extension() == ".c" ? Language::C : Language::Fortran;
    const std::string what =
        difftest::survives_or_what(file.filename().string(), slurp(file), lang);
    EXPECT_EQ(what, "") << file.filename().string() << ": " << what;
  }
}

/// The *.failures.json reports directly inside `dir`.
std::set<std::string> failure_reports(const fs::path& dir) {
  std::set<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".failures.json")) out.insert(name);
  }
  return out;
}

TEST(CrashCorpus, EveryFileSurvivesTheAracCli) {
  // Every in-process arac run goes through the batch engine's per-unit
  // barrier, backed by run_arac's top-level sink. Failure reports go to a
  // temporary export dir, never into the test's working directory.
  const fs::path export_dir = fs::temp_directory_path() / "ara_crash_corpus_cli";
  fs::remove_all(export_dir);
  const std::set<std::string> cwd_reports = failure_reports(fs::current_path());
  for (const fs::path& file : corpus_files()) {
    std::ostringstream out, err;
    int rc = -1;
    EXPECT_NO_THROW(rc = driver::run_arac(
                        {"--quiet", "--export-dir", export_dir.string(), file.string()}, out,
                        err))
        << file.filename().string();
    EXPECT_TRUE(rc == 0 || rc == 1 || rc == 2)
        << file.filename().string() << " rc=" << rc << "\n" << err.str();
  }
  EXPECT_EQ(failure_reports(fs::current_path()), cwd_reports);
  fs::remove_all(export_dir);
}

}  // namespace
}  // namespace ara
