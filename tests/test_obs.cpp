// The observability layer: MetricRegistry semantics (counters, gauges,
// high-water marks, timers, merge), JsonWriter correctness (escaping,
// number round-tripping, NaN/Inf policy, structural validation), and the
// headline manifest guarantee -- a sweep's JSON run manifest is identical
// at any thread count once timing fields are stripped.
#include "obs/metrics.hpp"
#include "report/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/param_grid.hpp"
#include "exec/sweep_runner.hpp"
#include "network/builders.hpp"
#include "sim/network_sim.hpp"
#include "stats/rng.hpp"

namespace {

using namespace ffc;
using obs::MetricRegistry;
using report::JsonWriter;

// ---- MetricRegistry ------------------------------------------------------

TEST(MetricRegistry, CountersAccumulateAndDefaultToZero) {
  MetricRegistry reg;
  EXPECT_EQ(reg.counter("missing"), 0u);
  reg.add("events");
  reg.add("events", 41);
  EXPECT_EQ(reg.counter("events"), 42u);
  EXPECT_TRUE(reg.gauges().empty());
}

TEST(MetricRegistry, GaugesOverwrite) {
  MetricRegistry reg;
  reg.set_gauge("occupancy", 1.5);
  reg.set_gauge("occupancy", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("occupancy"), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("missing"), 0.0);
}

TEST(MetricRegistry, HighWaterKeepsMax) {
  MetricRegistry reg;
  reg.set_max("calendar", 7);
  reg.set_max("calendar", 3);
  EXPECT_EQ(reg.high_water("calendar"), 7u);
  reg.set_max("calendar", 11);
  EXPECT_EQ(reg.high_water("calendar"), 11u);
}

TEST(MetricRegistry, TimersAccumulateSecondsAndCount) {
  MetricRegistry reg;
  reg.record_seconds("phase", 0.25);
  reg.record_seconds("phase", 0.5);
  EXPECT_DOUBLE_EQ(reg.timer("phase").seconds, 0.75);
  EXPECT_EQ(reg.timer("phase").count, 2u);
}

TEST(MetricRegistry, ScopedTimerRecordsOnScopeExit) {
  MetricRegistry reg;
  {
    auto t = reg.time("scope");
    EXPECT_EQ(reg.timer("scope").count, 0u);  // not yet recorded
  }
  EXPECT_EQ(reg.timer("scope").count, 1u);
  EXPECT_GE(reg.timer("scope").seconds, 0.0);
}

TEST(MetricRegistry, MergeSumsCountersGaugesTimersAndMaxesHighWater) {
  MetricRegistry a, b;
  a.add("n", 10);
  b.add("n", 5);
  b.add("only_b", 1);
  a.set_gauge("g", 1.0);
  b.set_gauge("g", 2.0);
  a.set_max("hw", 4);
  b.set_max("hw", 9);
  a.record_seconds("t", 1.0);
  b.record_seconds("t", 2.0);

  a.merge(b);
  EXPECT_EQ(a.counter("n"), 15u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 3.0);
  EXPECT_EQ(a.high_water("hw"), 9u);
  EXPECT_DOUBLE_EQ(a.timer("t").seconds, 3.0);
  EXPECT_EQ(a.timer("t").count, 2u);
}

TEST(MetricRegistry, MergeIsOrderIndependentForIntegerKinds) {
  MetricRegistry a1, a2, b1, b2;
  a1.add("n", 3);
  b1.add("n", 4);
  a1.set_max("hw", 2);
  b1.set_max("hw", 8);
  a2.add("n", 4);
  b2.add("n", 3);
  a2.set_max("hw", 8);
  b2.set_max("hw", 2);
  a1.merge(b1);
  a2.merge(b2);
  EXPECT_EQ(a1.counter("n"), a2.counter("n"));
  EXPECT_EQ(a1.high_water("hw"), a2.high_water("hw"));
}

TEST(MetricRegistry, JsonOmitsEmptySectionsAndSortsNames) {
  MetricRegistry reg;
  reg.add("zebra");
  reg.add("alpha");
  std::ostringstream oss;
  JsonWriter w(oss, 0);
  reg.write_json(w);
  w.close();
  const std::string out = oss.str();
  EXPECT_EQ(out, R"({"counters":{"alpha":1,"zebra":1}})");
}

// ---- JsonWriter ----------------------------------------------------------

TEST(JsonWriter, EscapesQuotesBackslashesNewlinesAndControls) {
  EXPECT_EQ(JsonWriter::escape("plain"), "\"plain\"");
  EXPECT_EQ(JsonWriter::escape("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonWriter::escape("line1\nline2"), "\"line1\\nline2\"");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonWriter::escape(std::string("nul\x01") + "x"),
            "\"nul\\u0001x\"");
}

TEST(JsonWriter, WritesNestedStructureCompact) {
  std::ostringstream oss;
  JsonWriter w(oss, 0);
  w.begin_object();
  w.kv("name", "sweep");
  w.key("values").begin_array().value(1.5).value(std::uint64_t{2}).end_array();
  w.kv("ok", true);
  w.key("nothing").null();
  w.end_object();
  w.close();
  EXPECT_EQ(oss.str(),
            R"({"name":"sweep","values":[1.5,2],"ok":true,"nothing":null})");
}

TEST(JsonWriter, DoublesRoundTripThroughMaxDigits) {
  std::ostringstream oss;
  JsonWriter w(oss, 0);
  w.value(0.1);
  w.close();
  EXPECT_EQ(std::stod(oss.str()), 0.1);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNullAndAreCounted) {
  std::ostringstream oss;
  JsonWriter w(oss, 0);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.0);
  w.end_array();
  w.close();
  EXPECT_EQ(oss.str(), "[null,null,null,1]");
  EXPECT_EQ(w.non_finite_count(), 3u);
}

TEST(JsonWriter, StructuralMisuseThrows) {
  std::ostringstream oss;
  {
    JsonWriter w(oss, 0);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), std::logic_error);  // value without key
    EXPECT_THROW(w.end_array(), std::logic_error);
    w.key("k");
    EXPECT_THROW(w.key("k2"), std::logic_error);  // consecutive keys
    EXPECT_THROW(w.end_object(), std::logic_error);  // dangling key
    w.value(1.0);
    EXPECT_THROW(w.close(), std::logic_error);  // still open
    w.end_object();
    w.close();
  }
  {
    std::ostringstream oss2;
    JsonWriter w2(oss2, 0);
    EXPECT_THROW(w2.key("k"), std::logic_error);  // key at top level
    w2.value(1.0);
    EXPECT_THROW(w2.value(2.0), std::logic_error);  // two documents
  }
}

TEST(JsonWriter, PrettyPrintsOneKeyPerLine) {
  std::ostringstream oss;
  JsonWriter w(oss, 2);
  w.begin_object();
  w.kv("a", std::uint64_t{1});
  w.kv("b", std::uint64_t{2});
  w.end_object();
  w.close();
  EXPECT_EQ(oss.str(), "{\n  \"a\": 1,\n  \"b\": 2\n}\n");
}

// ---- DES + closed-loop serialization ------------------------------------

TEST(ObsIntegration, NetworkSimulatorCollectsDesCounters) {
  sim::NetworkSimulator netsim(network::single_bottleneck(2, 1.0),
                               sim::SimDiscipline::Fifo, 7);
  netsim.set_rates({0.3, 0.3});
  netsim.run_for(500.0);
  MetricRegistry reg;
  netsim.collect_metrics(reg);
  EXPECT_EQ(reg.counter("des.events_processed"), netsim.events_processed());
  EXPECT_GT(reg.counter("des.events_processed"), 0u);
  EXPECT_GT(reg.high_water("des.calendar_high_water"), 0u);
  EXPECT_EQ(reg.counter("net.packets_generated"), netsim.packets_generated());
  EXPECT_EQ(reg.counter("net.packets_delivered"),
            netsim.packets_delivered_total());
  // Conservation: generated >= served >= delivered on a one-hop path.
  EXPECT_GE(reg.counter("net.packets_generated"),
            reg.counter("net.packets_served"));
  EXPECT_GE(reg.counter("net.packets_served"),
            reg.counter("net.packets_delivered"));
  EXPECT_GT(reg.gauge("net.gateway0.mean_queue"), 0.0);
}

// ---- manifest determinism ------------------------------------------------

// A task with RNG use and metrics: everything derives from (point, seed).
double manifest_task(const exec::GridPoint& p, std::uint64_t seed,
                     MetricRegistry& metrics) {
  stats::Xoshiro256 rng(seed);
  double acc = p.get("x");
  for (int i = 0; i < 100; ++i) acc += rng.uniform01();
  metrics.add("task.draws", 100);
  metrics.set_max("task.index_high_water", p.index());
  metrics.record_seconds("task.inner", 0.001);  // deterministic timer value
  return acc;
}

std::string manifest_json(std::size_t jobs) {
  exec::ParamGrid grid;
  grid.axis("x", exec::ParamGrid::linspace(0.0, 1.0, 5))
      .axis("y", exec::ParamGrid::linspace(2.0, 3.0, 3));
  exec::SweepRunner runner(
      exec::SweepOptions{.jobs = jobs, .base_seed = 2026});
  runner.run(grid, manifest_task);
  std::ostringstream oss;
  runner.last_manifest().write_json(oss);
  return oss.str();
}

// Drops the wall-clock-derived lines: the "execution" section's fields and
// every per-task / per-timer "seconds" entry (the documented comparison
// convention; docs/OBSERVABILITY.md).
std::string strip_timing(const std::string& json) {
  static const char* const kTimingKeys[] = {
      "\"jobs\":",        "\"wall_seconds\":",     "\"total_task_seconds\":",
      "\"min_task_seconds\":", "\"max_task_seconds\":", "\"tasks_per_second\":",
      "\"speedup\":",     "\"seconds\":"};
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    bool timing = false;
    for (const char* key : kTimingKeys) {
      if (line.find(key) != std::string::npos) timing = true;
    }
    if (!timing) out += line + "\n";
  }
  return out;
}

TEST(SweepManifest, IdenticalAcrossThreadCountsExceptTiming) {
  const std::string serial = manifest_json(1);
  const std::string parallel = manifest_json(4);
  EXPECT_NE(serial, parallel);  // wall-clock fields genuinely differ...
  EXPECT_EQ(strip_timing(serial), strip_timing(parallel));  // ...only they do
}

TEST(SweepManifest, RecordsSeedsGridPointsAndMergedMetrics) {
  exec::ParamGrid grid;
  grid.axis("x", {0.25, 0.75});
  exec::SweepRunner runner(exec::SweepOptions{.jobs = 2, .base_seed = 11});
  runner.run(grid, manifest_task);
  const auto& manifest = runner.last_manifest();

  EXPECT_EQ(manifest.base_seed, 11u);
  ASSERT_EQ(manifest.axes.size(), 1u);
  EXPECT_EQ(manifest.axes[0], "x");
  ASSERT_EQ(manifest.tasks.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(manifest.tasks[i].index, i);
    EXPECT_EQ(manifest.tasks[i].seed, exec::derive_task_seed(11, i));
    ASSERT_EQ(manifest.tasks[i].coords.size(), 1u);
    EXPECT_EQ(manifest.tasks[i].metrics.counter("task.draws"), 100u);
    EXPECT_GE(manifest.tasks[i].seconds, 0.0);
  }
  EXPECT_EQ(manifest.tasks[0].coords[0], 0.25);
  EXPECT_EQ(manifest.tasks[1].coords[0], 0.75);
  // Merged: counters sum, high-water maxes, deterministic timers sum.
  EXPECT_EQ(manifest.merged.counter("task.draws"), 200u);
  EXPECT_EQ(manifest.merged.high_water("task.index_high_water"), 1u);
  EXPECT_EQ(manifest.merged.timer("task.inner").count, 2u);
  EXPECT_DOUBLE_EQ(manifest.merged.timer("task.inner").seconds, 0.002);
}

TEST(SweepManifest, TwoArgTasksStillProduceAManifest) {
  exec::ParamGrid grid;
  grid.axis("x", {1.0, 2.0, 3.0});
  exec::SweepRunner runner(exec::SweepOptions{.jobs = 1, .base_seed = 3});
  const auto out = runner.run(
      grid, [](const exec::GridPoint& p, std::uint64_t) { return p.get("x"); });
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.0}));
  const auto& manifest = runner.last_manifest();
  ASSERT_EQ(manifest.tasks.size(), 3u);
  EXPECT_TRUE(manifest.tasks[0].metrics.empty());
  EXPECT_TRUE(manifest.merged.empty());
  EXPECT_EQ(manifest.tasks[2].seed, exec::derive_task_seed(3, 2));
}

TEST(SweepManifest, JsonDocumentIsWellFormedAndCarriesSchema) {
  exec::ParamGrid grid;
  grid.axis("x", {0.5});
  exec::SweepRunner runner(exec::SweepOptions{.jobs = 1, .base_seed = 1});
  runner.run(grid, manifest_task);
  std::ostringstream oss;
  runner.last_manifest().write_json(oss);
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"schema\": \"ffc.sweep_manifest.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"non_finite_values\": 0"), std::string::npos);
  // Balanced braces/brackets outside strings (no string values contain
  // braces in this manifest).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SweepManifest, NonFiniteGaugeBecomesNullAndIsFlagged) {
  exec::ParamGrid grid;
  grid.axis("x", {1.0});
  exec::SweepRunner runner(exec::SweepOptions{.jobs = 1, .base_seed = 1});
  runner.run(grid, [](const exec::GridPoint&, std::uint64_t,
                      MetricRegistry& metrics) {
    metrics.set_gauge("diverged", std::numeric_limits<double>::infinity());
    return 0;
  });
  std::ostringstream oss;
  runner.last_manifest().write_json(oss);
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"diverged\": null"), std::string::npos);
  // Merged + per-task copies of the gauge: two nulls flagged.
  EXPECT_NE(json.find("\"non_finite_values\": 2"), std::string::npos);
}

}  // namespace
