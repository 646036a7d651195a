// Golden-shape checks on the emitted telemetry: the Chrome trace must be
// valid JSON with monotonic timestamps and properly nested durations, and
// the .stats.json written next to the Dragon exports must carry counters
// from the frontend, regions and ipa namespaces.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "driver/compiler.hpp"
#include "obs/report.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "serve/engine.hpp"
#include "support/json.hpp"

namespace ara::obs {
namespace {

namespace fs = std::filesystem;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    StatsRegistry::instance().reset();
    Timeline::instance().clear();
  }
  void TearDown() override {
    set_enabled(false);
    StatsRegistry::instance().reset();
    Timeline::instance().clear();
  }
};

/// Full pipeline on the paper's Fig 10 workload, exporting Dragon files.
void run_pipeline(const fs::path& out_dir) {
  driver::Compiler cc;
  const auto src = serve::read_source(fs::path(ARA_WORKLOADS_DIR) / "fig10_matrix.c", nullptr);
  ASSERT_TRUE(src.has_value());
  cc.add_source(src->name, src->text, src->lang);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  const auto result = cc.analyze();
  std::string error;
  ASSERT_TRUE(driver::export_dragon_files(cc.program(), result, out_dir, "fig10", &error))
      << error;
}

TEST_F(TraceTest, ChromeTraceIsValidAndWellNested) {
  const fs::path dir = fs::temp_directory_path() / "ara_trace_test";
  run_pipeline(dir);

  const std::string text = write_chrome_trace(Timeline::instance().completed());
  std::string err;
  const auto v = json::parse(text, &err);
  ASSERT_TRUE(v.has_value()) << err;
  ASSERT_TRUE(v->is_array());
  ASSERT_GE(v->array.size(), 8u) << "expected spans for compile/parse/sema/.../export";

  double prev_ts = -1.0;
  std::set<std::string> names;
  std::size_t metadata_events = 0;
  // Reconstruct nesting from ts/dur with a stack, exactly as chrome://tracing
  // does for "X" events on one tid.
  std::vector<const json::Value*> stack;
  for (const json::Value& ev : v->array) {
    ASSERT_TRUE(ev.is_object());
    const json::Value* name = ev.find("name");
    const json::Value* ph = ev.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      // Lane-naming metadata: thread_name with a string args.name, one per
      // worker lane, emitted before any span event.
      EXPECT_EQ(name->string, "thread_name");
      EXPECT_EQ(prev_ts, -1.0) << "metadata events must precede all spans";
      const json::Value* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("name"), nullptr);
      EXPECT_FALSE(args->find("name")->string.empty());
      ++metadata_events;
      continue;
    }
    const json::Value* ts = ev.find("ts");
    const json::Value* dur = ev.find("dur");
    const json::Value* tid = ev.find("tid");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_EQ(ph->string, "X");
    EXPECT_TRUE(ts->is_number());
    EXPECT_TRUE(dur->is_number());
    EXPECT_GE(dur->number, 0.0);
    EXPECT_GE(ts->number, prev_ts) << "timestamps must be monotonic";
    prev_ts = ts->number;
    names.insert(name->string);

    // Pop completed ancestors, then require containment in the innermost
    // still-open span.
    while (!stack.empty()) {
      const json::Value* top = stack.back();
      if (ts->number >= top->find("ts")->number + top->find("dur")->number) {
        stack.pop_back();
      } else {
        break;
      }
    }
    if (!stack.empty()) {
      const json::Value* top = stack.back();
      EXPECT_LE(ts->number + dur->number, top->find("ts")->number + top->find("dur")->number)
          << name->string << " overlaps but is not nested inside " << top->find("name")->string;
    }
    stack.push_back(&ev);
  }

  // The canonical phases all show up.
  for (const char* phase : {"compile", "parse", "lex", "sema", "lower", "analyze", "local-ARA",
                            "IPA-propagate", "build-rows", "export"}) {
    EXPECT_TRUE(names.count(phase) == 1) << "missing phase span: " << phase;
  }
  EXPECT_GE(metadata_events, 1u) << "expected a thread_name metadata event per lane";

  fs::remove_all(dir);
}

TEST_F(TraceTest, StatsJsonExportedNextToDragonFiles) {
  const fs::path dir = fs::temp_directory_path() / "ara_stats_export_test";
  run_pipeline(dir);

  for (const char* f : {"fig10.rgn", "fig10.dgn", "fig10.cfg", "fig10.stats.json"}) {
    EXPECT_TRUE(fs::exists(dir / f)) << f;
  }

  std::ifstream in(dir / "fig10.stats.json");
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto v = json::parse(buf.str(), &err);
  ASSERT_TRUE(v.has_value()) << err;
  const json::Value* counters = v->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->object.size(), 10u);

  std::set<std::string> namespaces;
  for (const auto& [key, value] : counters->object) {
    namespaces.insert(key.substr(0, key.find('.')));
    EXPECT_TRUE(value.is_number()) << key;
  }
  EXPECT_TRUE(namespaces.count("frontend") == 1);
  EXPECT_TRUE(namespaces.count("regions") == 1);
  EXPECT_TRUE(namespaces.count("ipa") == 1);

  fs::remove_all(dir);
}

TEST_F(TraceTest, ReportsRenderNonEmpty) {
  const fs::path dir = fs::temp_directory_path() / "ara_report_test";
  run_pipeline(dir);
  const std::string time_report = render_time_report(Timeline::instance().completed());
  EXPECT_NE(time_report.find("compile"), std::string::npos);
  EXPECT_NE(time_report.find("% of run"), std::string::npos);
  const std::string stats = render_stats_table();
  EXPECT_NE(stats.find("frontend.tokens"), std::string::npos);
  fs::remove_all(dir);
}

TEST_F(TraceTest, EmptyTimelineYieldsEmptyArray) {
  const std::string text = write_chrome_trace({});
  const auto v = json::parse(text);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_array());
  EXPECT_TRUE(v->array.empty());
}

}  // namespace
}  // namespace ara::obs
