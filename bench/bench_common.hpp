// Shared helpers for the benchmark binaries: workload loading, the
// paper-vs-measured reporting format used by EXPERIMENTS.md, and the
// unified BENCH_*.json writer (ara.bench.v1) that arareport diffs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/compiler.hpp"
#include "serve/engine.hpp"

namespace ara::bench {

inline std::vector<std::filesystem::path> lu_sources() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    if (e.path().extension() == ".f") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Registers one source file (language by extension); exits if unreadable.
inline void add_file_or_die(driver::Compiler* cc, const std::filesystem::path& path) {
  const auto src = serve::read_source(path, nullptr);
  if (!src) {
    std::fprintf(stderr, "cannot read %s\n", path.string().c_str());
    std::exit(1);
  }
  cc->add_source(src->name, src->text, src->lang);
}

inline std::unique_ptr<driver::Compiler> compile_lu() {
  auto cc = std::make_unique<driver::Compiler>();
  for (const auto& f : lu_sources()) add_file_or_die(cc.get(), f);
  if (!cc->compile()) {
    std::fprintf(stderr, "%s", cc->diagnostics().render().c_str());
    std::exit(1);
  }
  return cc;
}

inline std::unique_ptr<driver::Compiler> compile_workload(const char* relative) {
  auto cc = std::make_unique<driver::Compiler>();
  add_file_or_die(cc.get(), std::filesystem::path(ARA_WORKLOADS_DIR) / relative);
  if (!cc->compile()) {
    std::fprintf(stderr, "%s", cc->diagnostics().render().c_str());
    std::exit(1);
  }
  return cc;
}

/// One line of the paper-vs-measured report.
inline void report(const char* what, const std::string& paper, const std::string& measured) {
  const bool match = paper == measured;
  std::printf("  %-46s paper=%-24s measured=%-24s %s\n", what, paper.c_str(), measured.c_str(),
              match ? "MATCH" : "(see EXPERIMENTS.md)");
}

inline std::string fmt_rows(const rgn::RegionRow& r) {
  return r.lb + ":" + r.ub + ":" + r.stride;
}

/// Strips `flag` from argv if present (so it never reaches
/// benchmark::Initialize) and reports whether it was there.
inline bool consume_flag(int* argc, char** argv, const char* flag) {
  bool found = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], flag) == 0) {
      found = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return found;
}

/// Builder for the unified benchmark record (ara.bench.v1, docs/FORMATS.md).
/// Each bench binary writes BENCH_<bench>.json next to itself so arareport
/// can diff two build trees (or a run against bench/baselines/). Metrics
/// carry an explicit comparison direction: "lower" (latencies), "higher"
/// (speedups), "exact" (structural inventory — any drift is a regression),
/// or "neutral" (informational).
class BenchJson {
 public:
  BenchJson(std::string bench, std::string workload)
      : bench_(std::move(bench)), workload_(std::move(workload)) {}

  void metric(const std::string& name, double value, const char* unit, const char* better) {
    metrics_.push_back({name, value, unit, better});
  }

  [[nodiscard]] std::string render() const {
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"ara.bench.v1\",\n";
    out += "  \"bench\": \"" + bench_ + "\",\n";
    out += "  \"workload\": \"" + workload_ + "\",\n";
    out += "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      char value[64];
      if (m.value == std::floor(m.value) && std::fabs(m.value) < 1e15) {
        std::snprintf(value, sizeof value, "%.0f", m.value);
      } else {
        std::snprintf(value, sizeof value, "%.4f", m.value);
      }
      out += "    \"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
             "\", \"better\": \"" + m.better + "\"}";
      out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "  }\n";
    out += "}\n";
    return out;
  }

  /// Writes BENCH_<bench>.json into the directory holding the running
  /// binary (argv[0]); falls back to the cwd when argv[0] has no parent.
  bool write_next_to(const char* argv0) const {
    namespace fs = std::filesystem;
    fs::path dir = fs::path(argv0).parent_path();
    if (dir.empty()) dir = ".";
    const fs::path path = dir / ("BENCH_" + bench_ + ".json");
    std::ofstream f(path);
    f << render();
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
      return false;
    }
    std::printf("wrote %s\n", path.string().c_str());
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    const char* better;
  };
  std::string bench_;
  std::string workload_;
  std::vector<Entry> metrics_;
};

}  // namespace ara::bench
