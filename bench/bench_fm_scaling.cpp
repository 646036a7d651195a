// §III ablation: "Fourier-Motzkin linear system solver, which has worst case
// exponential time, is needed to compare Regions". This bench measures FM
// feasibility time against variable and constraint counts — the practical
// cost of the Regions method's precision, and one of the design trade-offs
// DESIGN.md calls out (our dimension variables stay few, so real queries sit
// on the flat part of the curve).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/stats.hpp"
#include "regions/linsys.hpp"

namespace {

using namespace ara::regions;

/// Dense random system: every constraint touches every variable, the shape
/// that triggers FM's quadratic-per-step growth.
LinSystem dense_system(std::size_t nvars, std::size_t ncons, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> coef(-3, 3);
  std::uniform_int_distribution<std::int64_t> rhs(0, 50);
  LinSystem sys;
  for (std::size_t v = 0; v < nvars; ++v) {
    const std::string name = "x" + std::to_string(v);
    sys.add(make_ge(LinExpr::var(name), LinExpr(0)));
    sys.add(make_le(LinExpr::var(name), LinExpr(40)));
  }
  for (std::size_t c = 0; c < ncons; ++c) {
    LinExpr e(-rhs(rng));
    for (std::size_t v = 0; v < nvars; ++v) {
      e += LinExpr::var("x" + std::to_string(v), coef(rng));
    }
    sys.add(Constraint{e, Constraint::Rel::Le0});
  }
  return sys;
}

/// FM-stress corpus: the deep coupled-subscript / many-ivar shapes the fuzz
/// grid generates, plus the cross-procedure repetition pattern (identical
/// summaries analyzed again and again) that the Regions pipeline produces.
/// Deterministic by construction — the corpus inventory metrics are exact
/// reproducibility anchors for the perf gate.
std::vector<LinSystem> fm_stress_corpus() {
  std::vector<LinSystem> corpus;
  // (a) Dense random systems (every constraint touches every variable).
  for (std::size_t nvars = 3; nvars <= 6; ++nvars) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      corpus.push_back(dense_system(nvars, 4, seed));
    }
  }
  // (b) Triangular chains x0 <= x1 <= ... <= xk with box bounds and one
  // coupling row — the imperfect-nest shape (inner bounds reading outer
  // ivars) that drives elimination-order sensitivity.
  for (std::size_t depth = 4; depth <= 7; ++depth) {
    LinSystem sys;
    LinExpr coupling;
    for (std::size_t v = 0; v < depth; ++v) {
      const std::string name = "i" + std::to_string(v);
      sys.add(make_ge(LinExpr::var(name), LinExpr(1)));
      sys.add(make_le(LinExpr::var(name), LinExpr(60)));
      if (v > 0) {
        sys.add(make_le(LinExpr::var("i" + std::to_string(v - 1)), LinExpr::var(name)));
      }
      coupling += LinExpr::var(name, v % 2 == 0 ? 1 : -1);
    }
    sys.add(make_le(coupling, LinExpr(10)));
    corpus.push_back(std::move(sys));
  }
  // (c) Coupled-subscript equality systems: the dependence-test shape
  // (two renamed instances constrained equal), which FM resolves through
  // the equality-substitution fast path and pair combination.
  for (unsigned seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed * 77);
    std::uniform_int_distribution<std::int64_t> coef(-2, 2);
    LinSystem sys;
    for (const char* suffix : {"!1", "!2"}) {
      for (std::size_t v = 0; v < 3; ++v) {
        const std::string name = "i" + std::to_string(v) + suffix;
        sys.add(make_ge(LinExpr::var(name), LinExpr(0)));
        sys.add(make_le(LinExpr::var(name), LinExpr(30)));
      }
    }
    for (std::size_t d = 0; d < 2; ++d) {
      LinExpr diff;
      for (std::size_t v = 0; v < 3; ++v) {
        const std::int64_t c = coef(rng);
        diff += LinExpr::var("i" + std::to_string(v) + "!1", c);
        diff -= LinExpr::var("i" + std::to_string(v) + "!2", c == 0 ? 1 : c);
      }
      diff += LinExpr(coef(rng));
      sys.add(Constraint{std::move(diff), Constraint::Rel::Eq0});
    }
    sys.add(make_le(LinExpr::var("i0!1") + LinExpr(1), LinExpr::var("i0!2")));
    corpus.push_back(std::move(sys));
  }
  // (d) The cross-procedure repetition pattern: each distinct system above
  // re-appears three more times, the way identical callee summaries are
  // re-projected at every call site.
  const std::size_t distinct = corpus.size();
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t i = 0; i < distinct; ++i) corpus.push_back(corpus[i]);
  }
  return corpus;
}

/// Runs the stress corpus once: every system answers feasible(), then the
/// lowest-named variable's const_bounds (the to_region projection pattern).
/// Returns (feasible count, bounded count) — exact anchors.
std::pair<std::size_t, std::size_t> run_stress_pass(const std::vector<LinSystem>& corpus) {
  std::size_t feasible = 0;
  std::size_t bounded = 0;
  for (const LinSystem& sys : corpus) {
    if (sys.feasible()) ++feasible;
    const auto vars = sys.variables();
    if (!vars.empty()) {
      const auto b = sys.const_bounds(vars.front());
      if (b.lower && b.upper) ++bounded;
    }
  }
  return {feasible, bounded};
}

/// The exact FM work of one run of `fn` from an empty projection memo: the
/// registered regions.* counters, plus the memo misses (projections really
/// computed, not replayed). Host-independent: any drift is a change in the
/// algorithm or in the memo, never noise.
template <class Fn>
void record_fm_work(ara::bench::BenchJson& json, const std::string& prefix, Fn&& fn) {
  fm_memo_clear();
  ara::obs::StatsRegistry::instance().reset();
  ara::obs::set_enabled(true);
  fn();
  ara::obs::set_enabled(false);
  for (const ara::obs::StatEntry& e : ara::obs::StatsRegistry::instance().snapshot()) {
    for (const char* name : {"fm_eliminations", "fm_pairs_combined", "feasibility_checks"}) {
      if (e.name == std::string("regions.") + name) {
        json.metric(prefix + "_" + name, static_cast<double>(e.value), "count", "exact");
      }
    }
  }
  json.metric(prefix + "_memo_misses", static_cast<double>(fm_memo_misses()), "count", "exact");
}

/// Wall time of one call of `fn`, in ms.
template <class Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median of a sample (copied; the sample is small).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() % 2 == 1 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2.0;
}

/// The timing gate's yardstick: FM-shaped work that shares no code with
/// regions:: — small integer rows copied, sorted, combined pairwise and
/// looked up by a splitmix hash in a bounded memo, the instruction mix of
/// an elimination and of its memo. A slower LinSystem moves only the
/// numerator of the *_per_calib ratios; a slower or busier host moves both.
std::int64_t calibration_kernel() {
  constexpr std::size_t kRows = 32;
  constexpr std::size_t kCols = 6;
  constexpr int kRounds = 2000;
  std::mt19937 rng(4242);
  std::uniform_int_distribution<std::int64_t> coef(-3, 3);
  std::vector<std::vector<std::int64_t>> rows(kRows, std::vector<std::int64_t>(kCols));
  for (auto& row : rows) {
    for (auto& c : row) c = coef(rng);
  }
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> memo;
  std::int64_t checksum = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<std::int64_t>> sys = rows;
    std::sort(sys.begin(), sys.end());
    for (std::size_t i = 0; i + 1 < kRows; i += 2) {
      std::vector<std::int64_t> c(kCols);
      for (std::size_t k = 0; k < kCols; ++k) {
        c[k] = sys[i + 1][0] * sys[i][k] - sys[i][0] * sys[i + 1][k];
      }
      sys.push_back(std::move(c));
    }
    for (const auto& row : sys) {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (const std::int64_t w : row) {
        h ^= static_cast<std::uint64_t>(w) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      }
      if (const auto it = memo.find(h); it != memo.end()) {
        checksum += it->second[0];
      } else {
        memo.emplace(h, row);
      }
    }
    rows[round % kRows][round % kCols] += (round & 1) != 0 ? 1 : -1;
    if (memo.size() > 4096) memo.clear();
  }
  return checksum;
}

void print_reproduction(const char* argv0) {
  ara::bench::BenchJson json("fm_scaling", "dense-random");
  std::printf("=== FM scaling (the §III cost note) ===\n");
  std::printf("  feasibility of dense systems; constraints grow after each elimination\n");
  std::printf("  %-8s %-12s %-14s\n", "vars", "constraints", "feasible?");
  for (std::size_t nvars : {2u, 3u, 4u, 5u, 6u}) {
    const LinSystem sys = dense_system(nvars, 4, 7);
    const bool feasible = sys.feasible();
    std::printf("  %-8zu %-12zu %-14s\n", nvars, sys.size(), feasible ? "yes" : "no");
    // Fixed seed => the system and its verdict are exact reproducibility
    // anchors; only the timing below is a measurement.
    json.metric("feasible_vars" + std::to_string(nvars), feasible ? 1.0 : 0.0, "bool",
                "exact");
  }

  // The perf-smoke gate. Work is pinned exactly (counters from an empty
  // memo); time is gated only as a ratio to the calibration kernel. The
  // host's speed drifts by well over 10% within a second, so each sample
  // times the calibration kernel and the workload back to back and keeps
  // their ratio; the gate reads the median ratio. The ms values are
  // informational.
  std::vector<double> calib_ms;
  auto per_calib = [&](auto&& setup, auto&& fn) {
    constexpr int kSamples = 15;
    std::vector<double> ratios;
    std::vector<double> ms;
    for (int i = 0; i < kSamples; ++i) {
      const double c = time_ms([] { benchmark::DoNotOptimize(calibration_kernel()); });
      setup();
      const double t = time_ms(fn);
      calib_ms.push_back(c);
      ms.push_back(t);
      ratios.push_back(t / c);
    }
    return std::pair{median(ms), median(ratios)};
  };

  const LinSystem big = dense_system(6, 6, 7);
  record_fm_work(json, "feasible6x6", [&] { benchmark::DoNotOptimize(big.feasible()); });
  const auto [feasible_ms, feasible_ratio] =
      per_calib([] { fm_memo_clear(); }, [&] { benchmark::DoNotOptimize(big.feasible()); });
  json.metric("feasible6x6_ms", feasible_ms, "ms", "lower");
  json.metric("feasible6x6_per_calib", feasible_ratio, "ratio", "lower");

  // FM-stress corpus: a cold pass pins the work and the inventory anchors;
  // each timed sample replays it warm kStressReps times, as the regions
  // pipeline re-projects identical callee summaries at every call site.
  const std::vector<LinSystem> corpus = fm_stress_corpus();
  std::pair<std::size_t, std::size_t> anchors;
  record_fm_work(json, "fm_stress", [&] { anchors = run_stress_pass(corpus); });
  const auto [feasible_n, bounded_n] = anchors;
  constexpr int kStressReps = 8;
  const auto [stress_ms, stress_ratio] = per_calib([] {}, [&] {
    for (int rep = 0; rep < kStressReps; ++rep) {
      const auto again = run_stress_pass(corpus);
      benchmark::DoNotOptimize(again.first + again.second);
    }
  });
  std::printf("  FM-stress corpus: %zu systems, %zu feasible, %zu bounded, %.1f ms "
              "(%.2fx the calibration kernel)\n",
              corpus.size(), feasible_n, bounded_n, stress_ms, stress_ratio);
  json.metric("calibration_ms", median(calib_ms), "ms", "lower");
  json.metric("fm_stress_systems", static_cast<double>(corpus.size()), "count", "exact");
  json.metric("fm_stress_feasible", static_cast<double>(feasible_n), "count", "exact");
  json.metric("fm_stress_bounded", static_cast<double>(bounded_n), "count", "exact");
  json.metric("fm_stress_ms", stress_ms, "ms", "lower");
  json.metric("fm_stress_per_calib", stress_ratio, "ratio", "lower");
  json.write_next_to(argv0);
  std::printf("  (timings below show the super-linear growth in vars)\n\n");
}

void BM_FmFeasible(benchmark::State& state) {
  const std::size_t nvars = static_cast<std::size_t>(state.range(0));
  const std::size_t ncons = static_cast<std::size_t>(state.range(1));
  const LinSystem sys = dense_system(nvars, ncons, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.feasible());
  }
}
BENCHMARK(BM_FmFeasible)
    ->ArgsProduct({{2, 3, 4, 5, 6}, {4, 6}})
    ->Unit(benchmark::kMillisecond);

void BM_FmEliminateOne(benchmark::State& state) {
  const LinSystem sys = dense_system(static_cast<std::size_t>(state.range(0)), 6, 11);
  for (auto _ : state) {
    auto out = sys.eliminated("x0");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_FmEliminateOne)->DenseRange(2, 6, 2)->Unit(benchmark::kMicrosecond);

void BM_ConstBounds(benchmark::State& state) {
  const LinSystem sys = dense_system(static_cast<std::size_t>(state.range(0)), 6, 3);
  for (auto _ : state) {
    auto b = sys.const_bounds("x0");
    benchmark::DoNotOptimize(b.lower.has_value());
  }
}
BENCHMARK(BM_ConstBounds)->DenseRange(2, 6, 2)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const bool json_only = ara::bench::consume_flag(&argc, argv, "--json-only");
  print_reproduction(argv[0]);
  if (json_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
