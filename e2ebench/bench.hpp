// Shared pieces of the end-to-end benchmark (arabench): options, timing
// samples, the per-run result, and the traced per-layer ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "corpus.hpp"

namespace ara::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  CorpusShape shape;
  std::string out_dir = ".bench_out";
  std::size_t jobs = 1;  // nproc: CPUs this process may run on
};

/// Latency samples and the benchmark's two summaries of them.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values.size(); }
  [[nodiscard]] double median() const;

  struct Tail {
    double value = 0;
    double percentile = 50;
    std::size_t beyond = 0;  // samples above the reported percentile
  };
  /// Nearest-rank percentile `p`, with the number of samples beyond it.
  /// Each workload fixes its own `p` (see workloads.cpp), so every run of
  /// a workload is judged at the same percentile.
  [[nodiscard]] Tail tail(double p) const;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  // "lower" / "higher" / "exact" (ara.bench.v1 direction)
};

/// What one invocation measured and checked.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // the first few failures, for the log
  std::vector<Metric> e2e;      // --trace 0: the BENCHMARK.json end_to_end names
  std::vector<Metric> detail;   // --trace 0: the workload's own metric names
  std::vector<Metric> layers;   // --trace 1: the per-layer ledger
  std::vector<std::string> notes;  // extra human-readable lines

  /// Counts one attempted operation or output check; records a failure.
  void check(bool ok, const std::string& what);
};

/// Exact work counts the benchmark itself observes around public calls
/// (values the program's counters do not carry).
struct BenchCounts {
  std::uint64_t rgn_rows = 0;
  std::uint64_t rgn_bytes = 0;
  std::uint64_t loops = 0;
  std::uint64_t parallel_loops = 0;
  std::uint64_t interp_steps = 0;
  std::uint64_t points_checked = 0;
  std::uint64_t rpc_calls = 0;
  double rpc_client_ms = 0;  // summed client-side round trips
};

/// Per-layer ledger of one traced pass: reads the obs counters, histograms
/// and Timeline spans (program spans plus the benchmark's own "bench.*"
/// spans) as they stand, plus the benchmark-side counts. `pool_workers` is
/// the worker count of each run_batch in the pass (for serve.pool_busy_ratio).
[[nodiscard]] std::vector<Metric> build_ledger(const BenchCounts& counts,
                                               std::size_t pool_workers);

/// Runs one workload (untraced measurement or traced ledger per opts.trace).
[[nodiscard]] RunResult run_workload(const Options& opts);

}  // namespace ara::e2e
