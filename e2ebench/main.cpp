// arabench: the analyzer's end-to-end benchmark program.
//
//   arabench --workload W --seed N --seconds S --trace 0|1
//            [--units N] [--depth D] [--fan-in F] [--out DIR]
//   arabench --corpus-info [--seed N] [--units N] [--depth D] [--fan-in F]
//
// Prints the run's metrics by name with their units, then as its last line
// one JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1. Untraced runs
// also write DIR/BENCH_e2e-<workload>.json (ara.bench.v1) for arareport.
// Exit status: 0 when the run completed (correct or not), 1 when it was
// aborted by an exception (no result line), 2 on bad usage.
#include <charconv>
#include <exception>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <sched.h>

#include "bench.hpp"
#include "bench_common.hpp"

namespace {

using ara::e2e::Metric;

const char* const kWorkloads[] = {"corpus-cold", "corpus-warm", "corpus-library",
                                  "corpus-daemon", "fuzz-loops"};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

/// Shortest round-trip decimal form: every digit as measured.
std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "arabench: %s\nusage: arabench --workload W --seed N --seconds S --trace 0|1\n"
               "                [--units N] [--depth D] [--fan-in F] [--out DIR]\n"
               "       arabench --corpus-info [--seed N] [--units N] [--depth D] [--fan-in F]\n"
               "workloads: corpus-cold corpus-warm corpus-library corpus-daemon fuzz-loops\n",
               why);
  return 2;
}

bool parse_int(const char* s, long lo, long hi, long* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ara::e2e::Options opts;
  opts.jobs = nproc();
  bool info = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corpus-info") {
      info = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    long n = 0;
    if (a == "--workload") {
      opts.workload = v;
      for (const char* w : kWorkloads) have_workload |= opts.workload == w;
    } else if (a == "--seed" && parse_int(v, 0, 1L << 40, &n)) {
      opts.seed = static_cast<std::uint64_t>(n);
    } else if (a == "--seconds" && parse_int(v, 1, 3600, &n)) {
      opts.seconds = static_cast<double>(n);
    } else if (a == "--trace" && parse_int(v, 0, 1, &n)) {
      opts.trace = n == 1;
    } else if (a == "--units" && parse_int(v, 2, 5000, &n)) {
      opts.shape.units = static_cast<int>(n);
    } else if (a == "--depth" && parse_int(v, 1, 64, &n)) {
      opts.shape.depth = static_cast<int>(n);
    } else if (a == "--fan-in" && parse_int(v, 1, 64, &n)) {
      opts.shape.fan_in = static_cast<int>(n);
    } else if (a == "--out") {
      opts.out_dir = v;
    } else {
      return usage(("bad option " + a + " " + v).c_str());
    }
  }
  opts.shape.seed = opts.seed;

  if (info) {
    const ara::e2e::Corpus c = ara::e2e::generate_corpus(opts.shape);
    const ara::e2e::Corpus again = ara::e2e::generate_corpus(opts.shape);
    std::printf("%s\nself-check: %s\n", c.describe().c_str(),
                c.digest == again.digest ? "identical bytes" : "MISMATCH");
    return c.digest == again.digest ? 0 : 1;
  }
  if (!have_workload) return usage("unknown or missing --workload");

  ara::e2e::RunResult res;
  try {
    res = ara::e2e::run_workload(opts);
  } catch (const std::exception& e) {
    // An exception means the run did not complete: no result line.
    std::fprintf(stderr, "arabench: %s aborted: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  const char* tag = opts.workload.c_str();
  for (const std::string& n : res.notes) std::printf("[%s] %s\n", tag, n.c_str());
  for (const std::string& p : res.problems) std::printf("[%s] FAILED: %s\n", tag, p.c_str());
  const std::vector<Metric>& shown = opts.trace ? res.layers : res.detail;
  for (const Metric& m : shown) {
    std::printf("[%s] %-30s %14.4f %s\n", tag, m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::vector<Metric>& out = opts.trace ? res.layers : res.e2e;
  if (!opts.trace) {
    ara::bench::BenchJson record("e2e", opts.workload);
    for (const Metric& m : res.e2e) record.metric(m.name, m.value, m.unit.c_str(), m.better.c_str());
    for (const Metric& m : res.detail) {
      if (m.name != "setup_s") {
        record.metric(m.name, m.value, m.unit.c_str(), m.better.c_str());
      }
    }
    std::filesystem::create_directories(opts.out_dir);
    const auto path = std::filesystem::path(opts.out_dir) / ("BENCH_e2e-" + opts.workload + ".json");
    std::ofstream(path) << record.render();
    std::printf("[%s] wrote %s\n", tag, path.string().c_str());
  }

  std::string json = "{\"correct\": ";
  json += res.failed == 0 && res.attempted > 0 && !out.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + number(out[i].value) + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
