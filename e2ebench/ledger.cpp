// Per-layer ledger: turns one traced pass's spans, counters and histograms
// into the `<module>.<metric>` names of the benchmark's per_layer list.
// Also home to the sample statistics the ledger and the workloads share.
//
// Self time: a span's duration minus the durations of its child spans.
// Timeline records each span's parent from the opening thread's own stack,
// so children run on the same lane and never overlap one another; their
// summed duration is exactly the part of the parent's interval they cover.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string_view>

#include "bench.hpp"
#include "obs/histogram.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"

namespace ara::e2e {

double Samples::median() const {
  if (values.empty()) return 0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Samples::Tail Samples::tail(double p) const {
  Tail t;
  t.percentile = p;
  if (values.empty()) return t;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, n) - 1;
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  return t;
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 8) problems.push_back(what);
}

namespace {

constexpr double kNsPerMs = 1e6;

// Structural spans of the serve engine; every other "serve" span is one
// translation unit's task.
const std::set<std::string_view> kServePhases = {"batch", "units", "link", "link-propagate",
                                                 "link-rows"};

}  // namespace

std::vector<Metric> build_ledger(const BenchCounts& counts, std::size_t pool_workers) {
  const std::vector<obs::SpanEvent> ev = obs::Timeline::instance().completed();
  std::vector<double> child_ns(ev.size(), 0.0);
  for (const obs::SpanEvent& e : ev) {
    if (e.parent >= 0) child_ns[static_cast<std::size_t>(e.parent)] += static_cast<double>(e.dur_ns);
  }

  std::map<std::string, double> incl;  // inclusive ns by "cat/name"
  double frontend_self = 0, unit_busy = 0, unit_self = 0, units_wall = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const obs::SpanEvent& e = ev[i];
    const double dur = static_cast<double>(e.dur_ns);
    const double self = std::max(0.0, dur - child_ns[i]);
    incl[e.cat + "/" + e.name] += dur;
    if (e.cat == "frontend") frontend_self += self;
    if (e.cat == "serve" && kServePhases.count(e.name) == 0) {
      unit_busy += dur;
      unit_self += self;
    }
    if (e.cat == "serve" && e.name == "units") units_wall += dur;
  }
  const auto span_ms = [&](const std::string& key) {
    const auto it = incl.find(key);
    return it == incl.end() ? 0.0 : it->second / kNsPerMs;
  };

  std::map<std::string, double> ctr;
  for (const obs::StatEntry& s : obs::StatsRegistry::instance().snapshot()) {
    ctr[s.name] += static_cast<double>(s.value);
  }
  std::map<std::string, obs::HistogramSnapshot> hist;
  for (obs::HistogramSnapshot& h : obs::HistogramRegistry::instance().snapshot()) {
    hist[h.name] = std::move(h);
  }
  const auto c = [&](const char* name) {
    const auto it = ctr.find(name);
    return it == ctr.end() ? 0.0 : it->second;
  };
  const auto hist_sum_ms = [&](const char* name) {
    const auto it = hist.find(name);
    return it == hist.end() ? 0.0 : static_cast<double>(it->second.sum) / kNsPerMs;
  };
  const auto hist_mean_ms = [&](const char* name) {
    const auto it = hist.find(name);
    return it == hist.end() ? 0.0 : it->second.mean() / kNsPerMs;
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const double tokens = c("frontend.tokens");
  const double frontend_ms = frontend_self / kNsPerMs;
  const double analyze_count = static_cast<double>(
      hist.count("daemon.analyze_ns") != 0 ? hist["daemon.analyze_ns"].count : 0);
  const double batch_ms = span_ms("serve/batch");
  const double analyze_server_ms = hist_mean_ms("daemon.analyze_ns");
  const double interp_ms = span_ms("bench/bench.interp_run");

  std::vector<Metric> m;
  const auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit, ""});
  };
  add("frontend.self_ms", frontend_ms, "ms");
  add("frontend.tokens", tokens, "count");
  add("ir.wn_nodes", c("ir.wn_nodes"), "count");
  add("frontend.ns_per_token", ratio(frontend_self, tokens), "ns");
  // Local ARA: the monolithic pipeline's local-ARA phase plus, in the
  // batch engine, each unit task's own time (local analysis + summarize;
  // the front end under it is a child span) less its cache lookups.
  add("ipa.local_ms",
      span_ms("ipa/local-ARA") +
          std::max(0.0, unit_self / kNsPerMs - hist_sum_ms("serve.cache_lookup_ns")),
      "ms");
  add("ipa.propagate_ms", span_ms("ipa/IPA-propagate"), "ms");
  add("ipa.rows_ms", span_ms("ipa/build-rows"), "ms");
  add("ipa.access_records", c("ipa.access_records"), "count");
  add("ipa.region_merges", c("ipa.region_merges"), "count");
  add("ipa.rows_built", c("ipa.rows_built"), "count");
  add("regions.fm_eliminations", c("regions.fm_eliminations"), "count");
  add("regions.fm_pairs_combined", c("regions.fm_pairs_combined"), "count");
  add("regions.feasibility_checks", c("regions.feasibility_checks"), "count");
  add("regions.fm_eliminate_ms", hist_sum_ms("regions.fm_eliminate_ns"), "ms");
  add("lno.loops_ms", span_ms("bench/bench.find_parallel_loops"), "ms");
  add("lno.loops", static_cast<double>(counts.loops), "count");
  add("lno.parallel_loops", static_cast<double>(counts.parallel_loops), "count");
  add("serve.units_ms", units_wall / kNsPerMs, "ms");
  add("serve.unit_busy_ms", unit_busy / kNsPerMs, "ms");
  add("serve.pool_busy_ratio", ratio(unit_busy, units_wall * static_cast<double>(pool_workers)),
      "ratio");
  add("serve.queue_wait_ms", hist_sum_ms("serve.queue_wait_ns"), "ms");
  add("serve.cache_io_ms", hist_sum_ms("serve.cache_lookup_ns"), "ms");
  add("serve.cache_hits", c("serve.cache_hits"), "count");
  add("serve.cache_misses", c("serve.cache_misses"), "count");
  add("serve.resident_hits", c("serve.resident_hits"), "count");
  add("serve.invalidated_units", c("serve.invalidated_units"), "count");
  // Units whose summary was reused (disk-cache hits plus resident hits)
  // per unit submitted.
  add("serve.reuse_ratio",
      ratio(c("serve.cache_hits") + c("serve.resident_hits"), c("serve.units")), "ratio");
  add("serve.link_ms", span_ms("serve/link"), "ms");
  add("serve.link_propagate_ms", span_ms("serve/link-propagate"), "ms");
  add("serve.link_rows_ms", span_ms("serve/link-rows"), "ms");
  add("serve.link_callsites", c("serve.link_callsites"), "count");
  add("serve.link_interproc_records", c("serve.link_interproc_records"), "count");
  add("serve.unit_failures", c("serve.unit_failures"), "count");
  add("serve.retries", c("serve.retries"), "count");
  add("rgn.render_ms", span_ms("bench/bench.render"), "ms");
  add("rgn.rows", static_cast<double>(counts.rgn_rows), "count");
  add("rgn.bytes", static_cast<double>(counts.rgn_bytes), "count");
  add("daemon.analyze_server_ms", analyze_server_ms, "ms");
  add("daemon.query_server_ms", hist_mean_ms("daemon.query_ns"), "ms");
  // Mean per request: what the client waited minus what the handler spent.
  add("daemon.rpc_ms",
      counts.rpc_calls == 0
          ? 0.0
          : counts.rpc_client_ms / static_cast<double>(counts.rpc_calls) -
                hist_mean_ms("daemon.request_ns"),
      "ms");
  // Mean per analyze: handler time outside the batch (snapshot rendering
  // and publish, request parsing, reply building).
  add("daemon.publish_ms",
      analyze_count > 0 ? analyze_server_ms - batch_ms / analyze_count : 0.0, "ms");
  add("daemon.request_errors", c("daemon.request_errors"), "count");
  add("daemon.shed_requests", c("daemon.overload.shed_requests"), "count");
  add("interp.run_ms", interp_ms, "ms");
  add("interp.steps", static_cast<double>(counts.interp_steps), "count");
  add("interp.ns_per_step",
      ratio(interp_ms * kNsPerMs, static_cast<double>(counts.interp_steps)), "ns");
  add("difftest.generate_ms", span_ms("bench/bench.generate"), "ms");
  add("difftest.compare_ms", span_ms("bench/bench.compare"), "ms");
  add("difftest.points_checked", static_cast<double>(counts.points_checked), "count");
  add("driver.compile_ms", span_ms("driver/compile"), "ms");
  add("driver.analyze_ms", span_ms("driver/analyze"), "ms");
  return m;
}

}  // namespace ara::e2e
