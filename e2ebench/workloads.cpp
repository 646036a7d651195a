// The benchmark's workloads. Each one builds its inputs from the seed, sets
// up (several times, reporting the median), then either measures for the
// requested seconds with telemetry off (end-to-end metrics), or runs a
// fixed work set once untraced and twice traced (per-layer ledger; fixed
// work so every count repeats exactly). Every operation's output is
// checked; a failed operation or check is counted, never hidden.
//
// Only public entry points are called: serve::run_batch,
// driver::Compiler::compile/analyze, lno::find_parallel_loops,
// interp::Interpreter::run, difftest::generate/compare,
// rgn::write_rgn/write_dgn, and daemon::DaemonServer driven through
// daemon::DaemonClient over a Unix socket.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "bench_common.hpp"
#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "difftest/generator.hpp"
#include "difftest/oracle.hpp"
#include "driver/compiler.hpp"
#include "interp/interp.hpp"
#include "lno/dependence.hpp"
#include "obs/histogram.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"
#include "serve/engine.hpp"
#include "support/json.hpp"

namespace ara::e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 5;         // set-ups per run; setup_s is their median
constexpr int kTraceBatchOps = 3;  // corpus ops per traced pass
constexpr int kTraceEdits = 8;     // daemon editor requests per traced pass
constexpr int kTraceReads = 40;    // per reader per traced pass
constexpr int kTracePrograms = 60; // fuzz programs per traced pass
constexpr int kCensusRepeat = 40;  // fuzz programs re-run for the census check
constexpr std::uint64_t kWarmupPrograms = 64;  // fuzz set-up

// Tail percentiles, fixed per workload so that every run of a workload, on
// any commit, reports the same percentile. Each is the highest of
// p99/p95/p90/p75/p70 that had at least ten samples beyond it in every
// steadiness run at the default shape and BENCHMARK.json's run length
// (README.md lists the operation counts); a faster program only adds
// samples. A run with fewer says so in its notes.
// fuzz-loops is the exception: its p99 is set by a handful of
// Fourier-Motzkin blow-ups and spread up to 0.23 across seeds, so it
// reports p95.
constexpr double kBatchTail = 70;    // corpus-cold/-warm/-library operations
constexpr double kEditTail = 70;     // corpus-daemon edits
constexpr double kQueryTail = 95;    // corpus-daemon array queries and explains
constexpr double kProgramTail = 95;  // fuzz-loops programs

// LU through both pipelines (the BENCH_pipeline.json inventory).
constexpr std::size_t kLuUnits = 20;
constexpr std::size_t kLuRows = 942;
constexpr std::size_t kLuRgnBytes = 77468;

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// Drives the obs layer for one traced pass: resets every counter,
/// histogram and span, enables telemetry for `body`, then builds the ledger.
std::vector<Metric> traced_pass(const std::function<void(BenchCounts&)>& body,
                                std::size_t pool_workers, const std::string& trace_path) {
  obs::StatsRegistry::instance().reset();
  obs::HistogramRegistry::instance().reset();
  obs::Timeline::instance().clear();
  BenchCounts counts;
  obs::set_enabled(true);
  body(counts);
  obs::set_enabled(false);
  std::vector<Metric> ledger = build_ledger(counts, pool_workers);
  if (!trace_path.empty()) {
    std::ofstream(trace_path) << obs::write_chrome_trace(obs::Timeline::instance().completed());
  }
  obs::Timeline::instance().clear();
  return ledger;
}

/// The traced protocol shared by all workloads: a discarded warm-up pass,
/// one untraced pass (the overhead baseline), then two traced passes whose
/// count metrics must agree. `pass` runs the fixed work set and appends each
/// operation's latency; `prepare` (optional) restores the starting state
/// before every pass, untraced.
void traced_protocol(const Options& opts, RunResult& res, std::size_t pool_workers,
                     const std::function<void(BenchCounts&, Samples&)>& pass,
                     const std::function<void()>& prepare = {}) {
  const auto fresh = [&] {
    if (prepare) prepare();
  };
  Samples warmup, plain;
  BenchCounts ignored;
  fresh();
  pass(ignored, warmup);
  fresh();
  pass(ignored, plain);
  Samples traced_a, traced_b;
  fs::create_directories(opts.out_dir);
  const std::string trace_path =
      (fs::path(opts.out_dir) / (opts.workload + ".trace.json")).string();
  fresh();
  std::vector<Metric> a = traced_pass([&](BenchCounts& c) { pass(c, traced_a); },
                                      pool_workers, trace_path);
  fresh();
  std::vector<Metric> b =
      traced_pass([&](BenchCounts& c) { pass(c, traced_b); }, pool_workers, "");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].unit != "count") continue;
    res.check(a[i].value == b[i].value,
              "count " + a[i].name + " differs between traced passes: " + fmt(a[i].value) +
                  " vs " + fmt(b[i].value));
  }
  a.push_back({"obs.trace_overhead_ratio",
               plain.median() > 0 ? traced_a.median() / plain.median() : 0.0, "ratio", ""});
  res.layers = std::move(a);
  res.notes.push_back("chrome trace: " + trace_path);
}

/// "N (tail = pP, B beyond)", flagging a tail with fewer than ten samples
/// beyond it.
std::string tail_note(std::size_t n, const Samples::Tail& t) {
  return std::to_string(n) + " (tail = p" + fmt(t.percentile) + ", " + std::to_string(t.beyond) +
         " beyond" + (t.beyond < 10 ? ", FEWER THAN TEN" : "") + ")";
}

/// "set-ups: A B C s": every set-up time behind setup_s's median.
std::string setup_note(const Samples& setup_s) {
  std::string note = "set-ups:";
  for (double v : setup_s.values) note += " " + fmt(v);
  return note + " s";
}

double layer(const RunResult& res, const std::string& name) {
  for (const Metric& m : res.layers) {
    if (m.name == name) return m.value;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Corpus: one-shot batch, warm disk cache, in-process library path.

std::string render(const serve::BatchResult& r, BenchCounts& counts) {
  const obs::Span span("bench.render", "bench");
  // .dgn is rendered as arac's export does; only .rgn is compared.
  std::string rgn = rgn::write_rgn(r.link.rows);
  const std::string dgn = rgn::write_dgn(r.link.project);
  counts.rgn_rows += r.link.rows.size();
  counts.rgn_bytes += rgn.size();
  return rgn;
}

std::string render_rows(const std::vector<rgn::RegionRow>& rows, BenchCounts& counts) {
  const obs::Span span("bench.render", "bench");
  std::string rgn = rgn::write_rgn(rows);
  counts.rgn_rows += rows.size();
  counts.rgn_bytes += rgn.size();
  return rgn;
}

serve::BatchResult batch(const std::vector<serve::SourceBuffer>& sources, std::size_t jobs,
                         const std::string& cache_dir) {
  const obs::Span span("bench.run_batch", "bench");
  serve::BatchOptions o;
  o.jobs = jobs;
  o.cache_dir = cache_dir;
  return serve::run_batch(sources, o, "corpus");
}

/// First reason a batch is not clean, for the failure log ("ok" if none).
std::string batch_problem(const serve::BatchResult& r) {
  for (const serve::UnitReport& u : r.units) {
    if (u.failure.has_value()) return u.source_name + ": " + u.failure->reason + " " + u.diagnostics;
  }
  if (!r.ok) return "link failed: " + r.link.diags.render();
  return "ok, " + std::to_string(r.cache_misses) + " misses";
}

/// Rows of one (scope, array, file, mode) group: [begin, end) of a row list.
struct RowGroup {
  std::size_t begin = 0, end = 0;
};

std::vector<RowGroup> row_groups(const std::vector<rgn::RegionRow>& rows) {
  const auto same_key = [](const rgn::RegionRow& a, const rgn::RegionRow& b) {
    return a.scope == b.scope && a.array == b.array && a.file == b.file && a.mode == b.mode;
  };
  std::vector<RowGroup> groups;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || !same_key(rows[i - 1], rows[i])) groups.push_back({i, i});
    groups.back().end = i + 1;
  }
  return groups;
}

/// '|'-packed integer bounds ("0|-1|63"); false if any is not an integer.
bool parse_bounds(const std::string& packed, std::vector<long long>& out) {
  out.clear();
  std::size_t pos = 0;
  while (true) {
    const std::size_t bar = std::min(packed.find('|', pos), packed.size());
    const std::string field = packed.substr(pos, bar - pos);
    char* end = nullptr;
    const long long v = std::strtoll(field.c_str(), &end, 10);
    if (field.empty() || *end != '\0') return false;
    out.push_back(v);
    if (bar == packed.size()) return true;
    pos = bar + 1;
  }
}

/// Bounding box of a group's regions: the per-dimension minimum LB and
/// maximum UB. False if a bound is symbolic or the ranks disagree.
struct Box {
  std::vector<long long> lb, ub;
  friend bool operator==(const Box&, const Box&) = default;
};

bool group_hull(const std::vector<rgn::RegionRow>& rows, RowGroup g, Box& hull) {
  std::vector<long long> lb, ub;
  for (std::size_t i = g.begin; i < g.end; ++i) {
    if (!parse_bounds(rows[i].lb, lb) || !parse_bounds(rows[i].ub, ub) || lb.size() != ub.size()) {
      return false;
    }
    if (i == g.begin) {
      hull = {lb, ub};
    } else if (lb.size() != hull.lb.size()) {
      return false;
    }
    for (std::size_t d = 0; d < lb.size(); ++d) {
      hull.lb[d] = std::min(hull.lb[d], lb[d]);
      hull.ub[d] = std::max(hull.ub[d], ub[d]);
    }
  }
  return true;
}

/// A row without its region bounds and stride: what both paths must agree
/// on even where they split a group's regions differently.
std::string row_facts(const rgn::RegionRow& r) {
  return std::to_string(r.references) + ',' + std::to_string(r.dims) + ',' +
         std::to_string(r.element_size) + ',' + r.data_type + ',' + r.dim_size + ',' +
         std::to_string(r.tot_size) + ',' + std::to_string(r.size_bytes) + ',' + r.mem_loc +
         ',' + std::to_string(r.acc_density) + ',' + r.image + ',' + std::to_string(r.line);
}

std::string describe_group(const rgn::RegionRow& r) {
  return r.scope + "," + r.array + "," + r.file + "," + r.mode;
}

/// Outcome of comparing the batch engine's rows with the library path's.
struct CrossPath {
  std::string problem;           // first violation; empty when the paths agree
  std::size_t split_groups = 0;  // IUSE groups showing the known defect
};

/// The batch engine and the library path must give identical rows, except
/// for one known defect (see README.md, "Known defect"): in an IUSE group
/// the two paths can split the group's regions differently, mostly the
/// batch engine keeping apart regions that the library path merges. Such a
/// group is accepted, and counted, only when every column other than
/// LB/UB/Stride agrees and both sides cover the same bounding box. Any other
/// difference is a failure.
CrossPath compare_paths(const std::vector<rgn::RegionRow>& batch_rows,
                        const std::vector<rgn::RegionRow>& library_rows) {
  CrossPath out;
  const std::vector<RowGroup> bg = row_groups(batch_rows);
  const std::vector<RowGroup> lg = row_groups(library_rows);
  if (bg.size() != lg.size()) {
    out.problem = std::to_string(bg.size()) + " vs " + std::to_string(lg.size()) + " row groups";
    return out;
  }
  for (std::size_t g = 0; g < bg.size(); ++g) {
    const rgn::RegionRow& key = batch_rows[bg[g].begin];
    const auto b0 = batch_rows.begin() + static_cast<std::ptrdiff_t>(bg[g].begin);
    const auto l0 = library_rows.begin() + static_cast<std::ptrdiff_t>(lg[g].begin);
    if (std::equal(b0, b0 + static_cast<std::ptrdiff_t>(bg[g].end - bg[g].begin), l0,
                   l0 + static_cast<std::ptrdiff_t>(lg[g].end - lg[g].begin))) {
      continue;
    }
    const std::string where = "group " + describe_group(key) + " (batch row " +
                              std::to_string(bg[g].begin + 1) + ")";
    if (describe_group(key) != describe_group(library_rows[lg[g].begin]) || key.mode != "IUSE") {
      out.problem = where + " differs";
      return out;
    }
    std::vector<std::string> bf, lf;
    for (std::size_t i = bg[g].begin; i < bg[g].end; ++i) bf.push_back(row_facts(batch_rows[i]));
    for (std::size_t i = lg[g].begin; i < lg[g].end; ++i) lf.push_back(row_facts(library_rows[i]));
    for (std::vector<std::string>* v : {&bf, &lf}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    Box bh, lh;
    if (bf != lf) {
      out.problem = where + ": columns other than the bounds differ";
    } else if (!group_hull(batch_rows, bg[g], bh) || !group_hull(library_rows, lg[g], lh)) {
      out.problem = where + ": bounds differ and are not comparable";
    } else if (bh != lh) {
      out.problem = where + ": the two paths cover different bounding boxes";
    }
    if (!out.problem.empty()) return out;
    ++out.split_groups;
  }
  return out;
}

struct LibraryRun {
  bool ok = false;
  std::vector<rgn::RegionRow> rows;
};

LibraryRun library(const std::vector<serve::SourceBuffer>& sources) {
  driver::Compiler cc;
  for (const serve::SourceBuffer& s : sources) cc.add_source(s.name, s.text, s.lang);
  LibraryRun run;
  {
    const obs::Span span("bench.compile", "bench");
    run.ok = cc.compile();
  }
  if (!run.ok) return run;
  const obs::Span span("bench.analyze", "bench");
  run.rows = cc.analyze().rows;
  return run;
}

/// Generates the corpus twice and checks both copies are byte-identical.
Corpus checked_corpus(const Options& opts, RunResult& res) {
  Corpus corpus = generate_corpus(opts.shape);
  const Corpus again = generate_corpus(opts.shape);
  bool same = corpus.digest == again.digest && corpus.units.size() == again.units.size();
  for (std::size_t i = 0; same && i < corpus.units.size(); ++i) {
    same = corpus.units[i].source.text == again.units[i].source.text &&
           corpus.units[i].edited_text == again.units[i].edited_text;
  }
  res.check(same, "corpus generator is not deterministic for seed " +
                      std::to_string(opts.shape.seed));
  return corpus;
}

/// LU through the batch engine and the library path must give the pinned
/// inventory: 20 units, 942 rows, 77468 .rgn bytes.
void check_lu(const Options& opts, RunResult& res) {
  std::vector<serve::SourceBuffer> lu;
  for (const fs::path& f : bench::lu_sources()) {
    if (std::optional<serve::SourceBuffer> b = serve::read_source(f, nullptr)) {
      lu.push_back(std::move(*b));
    }
  }
  BenchCounts scratch;
  const serve::BatchResult r = batch(lu, opts.jobs, "");
  const std::string batch_rgn = render(r, scratch);
  res.check(r.ok && lu.size() == kLuUnits && r.link.rows.size() == kLuRows &&
                batch_rgn.size() == kLuRgnBytes,
            "LU batch inventory: " + std::to_string(lu.size()) + " units, " +
                std::to_string(r.link.rows.size()) + " rows, " +
                std::to_string(batch_rgn.size()) + " bytes");
  const LibraryRun lib = library(lu);
  res.check(lib.ok && lib.rows.size() == kLuRows &&
                render_rows(lib.rows, scratch) == batch_rgn,
            "LU library path differs from the batch path");
}

enum class CorpusPath { Cold, Warm, Library };

void corpus_workload(const Options& opts, CorpusPath path, RunResult& res) {
  const std::string cache_dir =
      (fs::path(opts.out_dir) / ("cache-" + std::to_string(::getpid()))).string();
  Corpus corpus;
  std::vector<serve::SourceBuffer> sources;
  std::string reference;  // .rgn every timed operation must reproduce
  std::size_t split_groups = 0;  // known-defect IUSE groups (compare_paths)
  Samples setup_s;
  for (int s = 0; s < (opts.trace ? 1 : kSetups); ++s) {
    const auto t0 = Clock::now();
    corpus = checked_corpus(opts, res);
    sources = corpus.sources();
    check_lu(opts, res);
    BenchCounts scratch;
    // Cross-path agreement, once per set-up: the batch engine and the
    // library path must give the same rows, up to the known IUSE split
    // (compare_paths). For the warm path this batch also fills the disk
    // cache.
    if (path == CorpusPath::Warm) fs::remove_all(cache_dir);
    const serve::BatchResult r = batch(sources, opts.jobs, path == CorpusPath::Warm ? cache_dir : "");
    res.check(r.ok && r.failed_units == 0 && r.cache_misses == sources.size(),
              "corpus batch: " + batch_problem(r));
    const std::string batch_rgn = render(r, scratch);
    const LibraryRun lib = library(sources);
    res.check(lib.ok, "corpus library path did not compile");
    const std::string library_rgn = render_rows(lib.rows, scratch);
    const CrossPath cross = compare_paths(r.link.rows, lib.rows);
    res.check(cross.problem.empty(),
              "corpus rows differ between the batch engine and the library path: " +
                  cross.problem);
    split_groups = cross.split_groups;
    // Timed operations must reproduce their own pipeline's bytes.
    reference = path == CorpusPath::Library ? library_rgn : batch_rgn;
    setup_s.add(ms_between(t0, Clock::now()) / 1000.0);
  }
  res.notes.push_back(corpus.describe());
  res.notes.push_back(setup_note(setup_s));
  res.notes.push_back("known defect: " + std::to_string(split_groups) +
                      " IUSE groups whose regions the batch engine and the library path split differently");

  // One timed operation; returns its latency and checks its output.
  const auto op = [&](BenchCounts& counts) {
    if (path == CorpusPath::Library) {
      const auto t0 = Clock::now();
      const LibraryRun lib = library(sources);
      const double ms = ms_between(t0, Clock::now());
      res.check(lib.ok && render_rows(lib.rows, counts) == reference,
                "library path .rgn differs from its first run");
      return ms;
    }
    const bool warm = path == CorpusPath::Warm;
    const auto t0 = Clock::now();
    const serve::BatchResult r = batch(sources, opts.jobs, warm ? cache_dir : "");
    const std::string rgn = render(r, counts);
    const double ms = ms_between(t0, Clock::now());
    res.check(r.ok && r.failed_units == 0 && (!warm || r.cache_misses == 0) && rgn == reference,
              std::string(warm ? "warm" : "cold") + " batch: " + batch_problem(r) +
                  (rgn == reference ? "" : "; .rgn differs from the set-up batch"));
    return ms;
  };

  if (opts.trace) {
    traced_protocol(opts, res, path == CorpusPath::Library ? 1 : opts.jobs,
                    [&](BenchCounts& counts, Samples& lat) {
                      for (int i = 0; i < kTraceBatchOps; ++i) lat.add(op(counts));
                    });
    res.check(layer(res, "regions.fm_eliminations") == 0,
              "corpus path ran Fourier-Motzkin eliminations");
    if (path == CorpusPath::Warm) {
      res.check(layer(res, "serve.cache_misses") == 0, "warm pass missed the cache");
    }
  } else {
    Samples lat;
    BenchCounts counts;
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(opts.seconds);
    do {
      lat.add(op(counts));
    } while (Clock::now() < deadline);
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    const Samples::Tail tail = lat.tail(kBatchTail);
    const char* name = path == CorpusPath::Cold   ? "cold_analyze_s"
                       : path == CorpusPath::Warm ? "warm_analyze_s"
                                                  : "library_analyze_s";
    res.e2e = {{"setup_s", setup_s.median(), "s", "lower"},
               {"op_p50_ms", lat.median(), "ms", "lower"},
               {"op_tail_ms", tail.value, "ms", "lower"},
               {"ops_per_s", static_cast<double>(lat.size()) / elapsed_s, "1/s", "higher"}};
    res.detail = {{name, lat.median() / 1000.0, "s", "lower"}};
    res.notes.push_back("operations: " + tail_note(lat.size(), tail));
  }
  fs::remove_all(cache_dir);
}

// ---------------------------------------------------------------------------
// Daemon: warm arad holding the corpus; one editor, two readers.

constexpr std::size_t kDaemonConnections = 3;  // editor + 2 readers
constexpr std::size_t kAnalyzeJobs = 2;        // editor's batch workers

std::string analyze_params(const std::vector<serve::SourceBuffer>& sources) {
  std::string os = "{\"project\":\"corpus\",\"jobs\":" + std::to_string(kAnalyzeJobs) +
                   ",\"sources\":[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i != 0) os += ',';
    os += "{\"name\":\"" + json::escape(sources[i].name) + "\",\"lang\":\"" +
          (sources[i].lang == Language::C ? "c" : "fortran") + "\",\"text\":\"" +
          json::escape(sources[i].text) + "\"}";
  }
  return os + "]}";
}

double reply_num(const daemon::RpcReply& r, std::string_view key) {
  const json::Value* v = r.result.find(key);
  return v != nullptr && v->is_number() ? v->number : -1;
}

std::string reply_text(const daemon::RpcReply& r) {
  const json::Value* v = r.result.find("text");
  return v != nullptr && v->is_string() ? v->string : std::string();
}

/// One RPC with its client-side round trip.
struct Timed {
  std::optional<daemon::RpcReply> reply;
  double ms = 0;
};

Timed timed_call(daemon::DaemonClient& client, const char* method, const std::string& params,
                 BenchCounts* counts) {
  const obs::Span span(std::string("bench.rpc.") + method, "bench");
  const auto t0 = Clock::now();
  Timed t{client.call(method, params), 0};
  t.ms = ms_between(t0, Clock::now());
  if (counts != nullptr) {
    counts->rpc_calls += 1;
    counts->rpc_client_ms += t.ms;
  }
  return t;
}

struct DaemonRig {
  std::unique_ptr<daemon::DaemonServer> server;
  daemon::DaemonClient clients[kDaemonConnections];
};

struct ReaderStats {
  Samples query_ms;  // array queries and explains
  Samples table_ms;  // whole-table queries
  BenchCounts counts;
  RunResult checks;  // merged into the run's result after the reader joins
  // Request kinds of the current block of ten, as percentiles of the mix:
  // < 60 array query, < 80 explain, else whole table.
  std::vector<int> mix = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};
};

void shuffle_mix(difftest::Rng& rng, std::vector<int>& mix) {
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

void daemon_workload(const Options& opts, RunResult& res) {
  fs::create_directories(opts.out_dir);
  Corpus corpus;
  DaemonRig rig;
  std::vector<char> edited;
  Samples setup_s;
  std::vector<std::string> arrays;  // reader query targets
  for (int s = 0; s < (opts.trace ? 1 : kSetups); ++s) {
    const auto t0 = Clock::now();
    for (daemon::DaemonClient& c : rig.clients) c.close();
    rig.server.reset();
    corpus = checked_corpus(opts, res);
    daemon::DaemonOptions dopts;
    dopts.socket_path = (fs::path(opts.out_dir) / ("arad-" + std::to_string(::getpid()) + "-" +
                                                   std::to_string(s) + ".sock"))
                            .string();
    dopts.jobs = kDaemonConnections;
    dopts.max_resident_mb = 0;
    dopts.analyze_jobs = kAnalyzeJobs;
    rig.server = std::make_unique<daemon::DaemonServer>(dopts);
    std::string error;
    if (!rig.server->start(&error)) {
      res.check(false, "daemon did not start: " + error);
      return;
    }
    for (daemon::DaemonClient& c : rig.clients) {
      if (!c.connect(dopts.socket_path, &error)) {
        res.check(false, "cannot connect: " + error);
        return;
      }
    }
    edited.assign(corpus.units.size(), 0);
    const std::string params = analyze_params(corpus.sources());
    const Timed cold = timed_call(rig.clients[0], "analyze", params, nullptr);
    const Timed warm = timed_call(rig.clients[0], "analyze", params, nullptr);
    res.check(cold.reply && cold.reply->ok && reply_num(*cold.reply, "failed_units") == 0 &&
                  warm.reply && warm.reply->ok &&
                  reply_num(*warm.reply, "resident_hits") ==
                      static_cast<double>(corpus.units.size()),
              "daemon warm-up analyze failed or was not fully resident");
    arrays = corpus.array_names();
    for (std::size_t r = 1; r < kDaemonConnections; ++r) {
      const Timed q = timed_call(rig.clients[r], "query",
                                 "{\"project\":\"corpus\",\"array\":\"" + arrays[r] + "\"}",
                                 nullptr);
      res.check(q.reply && q.reply->ok && !reply_text(*q.reply).empty(),
                "daemon warm-up query failed");
    }
    setup_s.add(ms_between(t0, Clock::now()) / 1000.0);
  }
  res.notes.push_back(corpus.describe());
  res.notes.push_back(setup_note(setup_s));

  // Edit targets: units no other unit depends on (closure 1) take four
  // edits in five; deeper shared units, whose reverse closure spans many
  // layers, take every fifth.
  std::vector<int> leaves, shared;
  std::vector<std::size_t> closure(corpus.units.size());
  for (std::size_t i = 0; i < corpus.units.size(); ++i) {
    closure[i] = corpus.closure_size(static_cast<int>(i));
    (closure[i] == 1 ? leaves : shared).push_back(static_cast<int>(i));
  }

  // The editor: toggles one unit per request and checks the daemon
  // re-analyzed exactly the unit plus its reverse-dependency closure.
  const auto edit = [&](int n, difftest::Rng& rng, BenchCounts* counts) {
    const std::vector<int>& pool = shared.empty() || (n % 5 != 4 && !leaves.empty())
                                       ? leaves
                                       : shared;
    const int u = pool[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(pool.size()) - 1))];
    edited[static_cast<std::size_t>(u)] ^= 1;
    const std::string params = analyze_params(corpus.sources(edited));
    const Timed t = timed_call(rig.clients[0], "analyze", params, counts);
    const double want = static_cast<double>(closure[static_cast<std::size_t>(u)]);
    res.check(t.reply && t.reply->ok && reply_num(*t.reply, "failed_units") == 0 &&
                  reply_num(*t.reply, "cache_misses") == want &&
                  reply_num(*t.reply, "invalidated_units") == want - 1,
              "edit of unit " + std::to_string(u) + " failed or re-analyzed " +
                  (t.reply ? fmt(reply_num(*t.reply, "cache_misses")) : "?") + " units, want " +
                  fmt(want));
    return t.ms;
  };
  // A reader request: in every ten, six single-array queries, two explains
  // and two whole-table queries, in a seeded order per reader.
  const auto read = [&](std::size_t r, int n, difftest::Rng& rng, ReaderStats& st, bool count) {
    if (n % 10 == 0) shuffle_mix(rng, st.mix);
    const int kind = st.mix[static_cast<std::size_t>(n % 10)];
    const std::string& array =
        arrays[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(arrays.size()) - 1))];
    const bool table = kind >= 80;
    const char* method = kind < 60 || table ? "query" : "explain";
    const std::string params =
        table ? std::string("{\"project\":\"corpus\"}")
        : kind < 60 ? "{\"project\":\"corpus\",\"array\":\"" + array + "\"}"
                    : "{\"project\":\"corpus\",\"target\":\"" + array + "\"}";
    const Timed t = timed_call(rig.clients[r], method, params, count ? &st.counts : nullptr);
    st.checks.check(t.reply && t.reply->ok && !reply_text(*t.reply).empty(),
                    std::string(method) + " failed: " + (t.reply ? t.reply->error : "transport"));
    (table ? st.table_ms : st.query_ms).add(t.ms);
  };

  // Runs the editor on this thread and the readers on their own, until
  // `deadline` or for fixed request counts (edits, reads <= 0 = unbounded).
  const auto run_load = [&](Clock::time_point deadline, int edits, int reads,
                            Samples& edit_ms, ReaderStats (&readers)[2], BenchCounts* counts) {
    std::vector<std::thread> threads;
    std::exception_ptr errors[kDaemonConnections - 1];
    for (std::size_t r = 1; r < kDaemonConnections; ++r) {
      threads.emplace_back([&, r] {
        try {
          difftest::Rng rng(opts.seed * 31 + r);
          for (int n = 0; reads > 0 ? n < reads : Clock::now() < deadline; ++n) {
            read(r, n, rng, readers[r - 1], counts != nullptr);
          }
        } catch (...) {
          errors[r - 1] = std::current_exception();
        }
      });
    }
    {
      // Joins the readers on every path out of this scope.
      struct Joiner {
        std::vector<std::thread>& threads;
        ~Joiner() {
          for (std::thread& t : threads) t.join();
        }
      } joiner{threads};
      difftest::Rng rng(opts.seed * 31);
      for (int n = 0; edits > 0 ? n < edits : Clock::now() < deadline; ++n) {
        edit_ms.add(edit(n, rng, counts));
      }
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (ReaderStats& st : readers) {
      res.attempted += st.checks.attempted;
      res.failed += st.checks.failed;
      for (std::string& p : st.checks.problems) {
        if (res.problems.size() < 8) res.problems.push_back(std::move(p));
      }
      st.checks = RunResult();
      if (counts != nullptr) {
        counts->rpc_calls += st.counts.rpc_calls;
        counts->rpc_client_ms += st.counts.rpc_client_ms;
      }
    }
  };

  if (opts.trace) {
    // Every pass starts from the original sources, so all passes do the
    // same edits on the same texts.
    const auto restore = [&] {
      edited.assign(corpus.units.size(), 0);
      const Timed t = timed_call(rig.clients[0], "analyze", analyze_params(corpus.sources()), nullptr);
      res.check(t.reply && t.reply->ok, "daemon restore analyze failed");
    };
    traced_protocol(
        opts, res, kAnalyzeJobs,
        [&](BenchCounts& counts, Samples& lat) {
          ReaderStats readers[2];
          run_load(Clock::now(), kTraceEdits, kTraceReads, lat, readers, &counts);
        },
        restore);
    res.check(layer(res, "regions.fm_eliminations") == 0,
              "daemon corpus path ran Fourier-Motzkin eliminations");
  } else {
    Samples edit_ms;
    ReaderStats readers[2];
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(opts.seconds));
    run_load(deadline, 0, 0, edit_ms, readers, nullptr);
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    Samples query_ms, table_ms;
    for (const ReaderStats& st : readers) {
      query_ms.values.insert(query_ms.values.end(), st.query_ms.values.begin(),
                             st.query_ms.values.end());
      table_ms.values.insert(table_ms.values.end(), st.table_ms.values.begin(),
                             st.table_ms.values.end());
    }
    const double reads_per_s = static_cast<double>(query_ms.size() + table_ms.size()) / elapsed_s;
    const Samples::Tail et = edit_ms.tail(kEditTail);
    const Samples::Tail qt = query_ms.tail(kQueryTail);
    res.e2e = {{"setup_s", setup_s.median(), "s", "lower"},
               {"op_p50_ms", edit_ms.median(), "ms", "lower"},
               {"op_tail_ms", et.value, "ms", "lower"},
               {"ops_per_s", reads_per_s, "1/s", "higher"}};
    res.detail = {{"edit_p50_ms", edit_ms.median(), "ms", "lower"},
                  {"edit_tail_ms", et.value, "ms", "lower"},
                  {"query_p50_ms", query_ms.median(), "ms", "lower"},
                  {"query_tail_ms", qt.value, "ms", "lower"},
                  {"table_p50_ms", table_ms.median(), "ms", "lower"},
                  {"query_per_s", reads_per_s, "1/s", "higher"}};
    res.notes.push_back("edits: " + tail_note(edit_ms.size(), et) +
                        "; queries: " + tail_note(query_ms.size(), qt) +
                        "; tables: " + std::to_string(table_ms.size()));
  }

  // After the load: a cold batch of the editor's final sources must equal
  // what the daemon serves as its .rgn artifact.
  const Timed art = timed_call(rig.clients[1], "query",
                               "{\"project\":\"corpus\",\"artifact\":\"rgn\"}", nullptr);
  BenchCounts scratch;
  const serve::BatchResult cold = batch(corpus.sources(edited), opts.jobs, "");
  res.check(art.reply && art.reply->ok && cold.ok && reply_text(*art.reply) == render(cold, scratch),
            "daemon .rgn differs from a cold batch of the editor's final sources");
  for (daemon::DaemonClient& c : rig.clients) c.close();
  rig.server->stop();
}

// ---------------------------------------------------------------------------
// Fuzz: FM-stress programs through the whole static + dynamic pipeline.

struct ProgramOutcome {
  bool ok = false;
  std::string why;
  std::vector<lno::LoopVerdict> verdicts;
};

difftest::GenOptions fuzz_options(std::uint64_t seed) {
  difftest::GenOptions g;
  g.seed = seed;
  g.lang = seed % 2 == 0 ? Language::C : Language::Fortran;
  // arafuzz --stress-fm's grid: deep nests, many live induction variables,
  // coupled subscripts.
  g.max_loop_depth = 5;
  g.max_loop_vars = 6;
  g.coupled_pct = 60;
  g.stmts = 6;
  return g;
}

/// generate -> compile -> analyze -> find_parallel_loops -> interpret with
/// dynamic recording -> compare; `dynamic` = false stops after the loops.
ProgramOutcome check_program(std::uint64_t seed, bool dynamic, BenchCounts& counts) {
  ProgramOutcome out;
  difftest::GeneratedProgram prog;
  {
    const obs::Span span("bench.generate", "bench");
    prog = difftest::generate(fuzz_options(seed));
  }
  driver::Compiler cc;
  cc.add_source(prog.filename, prog.source, prog.lang);
  {
    const obs::Span span("bench.compile", "bench");
    if (!cc.compile()) {
      out.why = "seed " + std::to_string(seed) + " did not compile";
      return out;
    }
  }
  ipa::AnalysisResult result;
  {
    const obs::Span span("bench.analyze", "bench");
    result = cc.analyze();
  }
  {
    const obs::Span span("bench.find_parallel_loops", "bench");
    for (const lno::LoopAnalysis& l : lno::find_parallel_loops(cc.program(), result.callgraph)) {
      out.verdicts.push_back(l.verdict);
    }
  }
  counts.loops += out.verdicts.size();
  counts.parallel_loops += static_cast<std::uint64_t>(
      std::count(out.verdicts.begin(), out.verdicts.end(), lno::LoopVerdict::Parallelizable));
  if (!dynamic) {
    out.ok = true;
    return out;
  }
  interp::DynamicSummary dyn;
  interp::InterpResult run;
  {
    const obs::Span span("bench.interp_run", "bench");
    interp::Interpreter interp(cc.program());
    run = interp.run(prog.entry, &dyn);
  }
  counts.interp_steps += run.steps;
  if (!run.ok) {
    out.why = "seed " + std::to_string(seed) + " failed at run time: " + run.error;
    return out;
  }
  difftest::DiffReport rep;
  {
    const obs::Span span("bench.compare", "bench");
    rep = difftest::compare(cc.program(), result, dyn);
  }
  counts.points_checked += rep.points_checked;
  out.ok = rep.violations.empty();
  if (!out.ok) {
    out.why = "seed " + std::to_string(seed) + ": " + rep.violations.front().kind + " " +
              rep.violations.front().detail;
  }
  return out;
}

void fuzz_workload(const Options& opts, RunResult& res) {
  // Each set-up and each pass runs on a fresh thread, so it starts from an
  // empty thread-local Fourier-Motzkin memo, like the measured loop.
  const auto on_fresh_thread = [](const std::function<void()>& fn) {
    std::exception_ptr error;
    std::thread t([&] {
      try {
        fn();
      } catch (...) {
        error = std::current_exception();
      }
    });
    t.join();
    if (error) std::rethrow_exception(error);
  };

  // Program seeds follow the run seed. The warm-up programs are the same
  // for every seed (a disjoint range), so set-up does the same work on
  // every run.
  const std::uint64_t base = opts.seed * 1000003ULL;
  Samples setup_s;
  for (int s = 0; s < (opts.trace ? 1 : kSetups); ++s) {
    const auto t0 = Clock::now();
    on_fresh_thread([&] {
      BenchCounts scratch;
      for (std::uint64_t i = 0; i < kWarmupPrograms; ++i) {
        const ProgramOutcome o = check_program((1ULL << 40) + i, true, scratch);
        res.check(o.ok, "warm-up " + o.why);
      }
    });
    setup_s.add(ms_between(t0, Clock::now()) / 1000.0);
  }
  res.notes.push_back(setup_note(setup_s));

  if (opts.trace) {
    traced_protocol(opts, res, 1, [&](BenchCounts& counts, Samples& lat) {
      on_fresh_thread([&] {
        for (int i = 0; i < kTracePrograms; ++i) {
          const auto t0 = Clock::now();
          const ProgramOutcome o =
              check_program(base + static_cast<std::uint64_t>(i), true, counts);
          lat.add(ms_between(t0, Clock::now()));
          res.check(o.ok, o.why);
        }
      });
    });
    res.check(layer(res, "regions.fm_eliminations") > 0,
              "fuzz-loops ran no Fourier-Motzkin eliminations");
    return;
  }

  Samples lat;
  std::map<lno::LoopVerdict, std::uint64_t> census;
  std::vector<std::vector<lno::LoopVerdict>> first;  // for the repeat check
  std::uint64_t programs = 0;
  double elapsed_s = 0;
  on_fresh_thread([&] {
    BenchCounts counts;
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(opts.seconds);
    do {
      const auto t0 = Clock::now();
      const ProgramOutcome o = check_program(base + programs, true, counts);
      lat.add(ms_between(t0, Clock::now()));
      res.check(o.ok, o.why);
      for (lno::LoopVerdict v : o.verdicts) ++census[v];
      if (first.size() < kCensusRepeat) first.push_back(o.verdicts);
      ++programs;
    } while (Clock::now() < deadline);
    elapsed_s = ms_between(start, Clock::now()) / 1000.0;
  });
  // The loop-verdict census must repeat exactly for the seed.
  on_fresh_thread([&] {
    BenchCounts scratch;
    for (std::size_t i = 0; i < first.size(); ++i) {
      const ProgramOutcome o = check_program(base + i, false, scratch);
      res.check(o.ok && o.verdicts == first[i],
                "loop verdicts of program seed " + std::to_string(base + i) + " did not repeat");
    }
  });
  std::string census_line = "loop-verdict census:";
  for (const auto& [v, n] : census) {
    census_line += " " + std::string(lno::to_string(v)) + "=" + std::to_string(n);
  }
  res.notes.push_back(census_line);
  const Samples::Tail tail = lat.tail(kProgramTail);
  const double per_s = static_cast<double>(programs) / elapsed_s;
  res.e2e = {{"setup_s", setup_s.median(), "s", "lower"},
             {"op_p50_ms", lat.median(), "ms", "lower"},
             {"op_tail_ms", tail.value, "ms", "lower"},
             {"ops_per_s", per_s, "1/s", "higher"}};
  res.detail = {{"programs_per_s", per_s, "1/s", "higher"},
                {"program_p50_ms", lat.median(), "ms", "lower"},
                {"program_tail_ms", tail.value, "ms", "lower"}};
  res.notes.push_back("programs: " + tail_note(lat.size(), tail));
}

}  // namespace

RunResult run_workload(const Options& opts) {
  RunResult res;
  obs::set_enabled(false);
  if (opts.workload == "corpus-cold") {
    corpus_workload(opts, CorpusPath::Cold, res);
  } else if (opts.workload == "corpus-warm") {
    corpus_workload(opts, CorpusPath::Warm, res);
  } else if (opts.workload == "corpus-library") {
    corpus_workload(opts, CorpusPath::Library, res);
  } else if (opts.workload == "corpus-daemon") {
    daemon_workload(opts, res);
  } else {
    fuzz_workload(opts, res);
  }
  if (!opts.trace && res.attempted > 0) {
    res.detail.push_back({"setup_s", res.e2e.empty() ? 0 : res.e2e[0].value, "s", "lower"});
    // Peak RSS covers the whole run, post-load checks included.
    res.detail.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "lower"});
    res.detail.push_back({"failed_ops_ratio",
                          static_cast<double>(res.failed) / static_cast<double>(res.attempted),
                          "ratio", "exact"});
  }
  return res;
}

}  // namespace ara::e2e
