// Unit tests for lacb/obs: metric instruments, scoped-span tracing, the
// JSON document model, and RunTelemetry snapshot round-trips.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lacb/obs/obs.h"
#include "lacb/scenario/spec.h"

namespace lacb::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters and gauges.
// ---------------------------------------------------------------------------

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetOverwritesAddAccumulates) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.Add(0.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricRegistryTest, GetReturnsStableInstances) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("x");
  a.Increment(3);
  // Same name resolves to the same instrument; new names start fresh.
  EXPECT_EQ(&registry.GetCounter("x"), &a);
  EXPECT_EQ(registry.GetCounter("x").value(), 3u);
  EXPECT_EQ(registry.GetCounter("y").value(), 0u);
  EXPECT_EQ(&registry.GetGauge("g"), &registry.GetGauge("g"));
  EXPECT_EQ(&registry.GetHistogram("h"), &registry.GetHistogram("h"));
}

TEST(MetricRegistryTest, ValidatesInstrumentNames) {
  EXPECT_TRUE(IsValidInstrumentName("serve.queue_depth"));
  EXPECT_TRUE(IsValidInstrumentName("x"));
  EXPECT_TRUE(IsValidInstrumentName("engine.batch_close.size"));
  EXPECT_TRUE(IsValidInstrumentName("_private.v2"));
  EXPECT_FALSE(IsValidInstrumentName(""));
  EXPECT_FALSE(IsValidInstrumentName(".leading"));
  EXPECT_FALSE(IsValidInstrumentName("trailing."));
  EXPECT_FALSE(IsValidInstrumentName("a..b"));
  EXPECT_FALSE(IsValidInstrumentName("CamelCase"));
  EXPECT_FALSE(IsValidInstrumentName("has-dash"));
  EXPECT_FALSE(IsValidInstrumentName("has space"));
  EXPECT_FALSE(IsValidInstrumentName("9starts_with_digit"));
  EXPECT_FALSE(IsValidInstrumentName("seg.9digit"));
}

TEST(MetricRegistryDeathTest, MalformedNameAborts) {
  MetricRegistry registry;
  EXPECT_DEATH(registry.GetCounter("Bad-Name"), "invalid instrument name");
}

TEST(MetricRegistryDeathTest, CrossTypeReRegistrationAborts) {
  MetricRegistry registry;
  registry.GetCounter("serve.submitted");
  EXPECT_DEATH(registry.GetGauge("serve.submitted"), "already registered");
  registry.GetHistogram("serve.latency");
  EXPECT_DEATH(registry.GetCounter("serve.latency"), "already registered");
}

TEST(MetricRegistryTest, SnapshotListsEveryInstrument) {
  MetricRegistry registry;
  registry.GetCounter("c.one").Increment(7);
  registry.GetGauge("g.one").Set(1.25);
  registry.GetHistogram("h.one").Record(0.5);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c.one"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g.one"), 1.25);
  EXPECT_EQ(snap.histograms.at("h.one").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h.one").sum, 0.5);
}

// ---------------------------------------------------------------------------
// Histograms and streaming quantiles.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketsAndBasicStats) {
  Histogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 0.7, 5.0, 50.0, 500.0}) h.Record(v);

  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 556.2);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 556.2 / 5.0);
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 buckets + overflow
  EXPECT_EQ(snap.counts[0], 2u);      // <= 1
  EXPECT_EQ(snap.counts[1], 1u);      // <= 10
  EXPECT_EQ(snap.counts[2], 1u);      // <= 100
  EXPECT_EQ(snap.counts[3], 1u);      // overflow
}

TEST(HistogramTest, QuantilesExactBelowFiveObservations) {
  Histogram h({1.0, 2.0, 3.0});
  h.Record(3.0);
  h.Record(1.0);
  h.Record(2.0);
  HistogramSnapshot snap = h.Snapshot();
  // With < 5 observations P² falls back to the sorted sample, linearly
  // interpolated at rank q * (n - 1).
  EXPECT_DOUBLE_EQ(snap.p50, 2.0);
  EXPECT_DOUBLE_EQ(snap.p99, 2.0 + 0.99 * 2.0 - 1.0);  // 2.98
}

TEST(P2QuantileTest, AccurateOnUniformDistribution) {
  // Uniform [0, 1): true quantile q is simply q.
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  P2Quantile p50(0.50), p95(0.95), p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    double x = uniform(rng);
    p50.Record(x);
    p95.Record(x);
    p99.Record(x);
  }
  EXPECT_NEAR(p50.Estimate(), 0.50, 0.02);
  EXPECT_NEAR(p95.Estimate(), 0.95, 0.02);
  EXPECT_NEAR(p99.Estimate(), 0.99, 0.01);
}

TEST(P2QuantileTest, AccurateOnExponentialDistribution) {
  // Exponential(1): true quantile q is -ln(1 - q). Heavier tail than
  // uniform, so this exercises the parabolic marker adjustment harder.
  std::mt19937 rng(99);
  std::exponential_distribution<double> expo(1.0);
  P2Quantile p50(0.50), p95(0.95);
  for (int i = 0; i < 50000; ++i) {
    double x = expo(rng);
    p50.Record(x);
    p95.Record(x);
  }
  EXPECT_NEAR(p50.Estimate(), -std::log(0.5), 0.05);
  EXPECT_NEAR(p95.Estimate(), -std::log(0.05), 0.15);
}

TEST(P2QuantileTest, ExactForEveryCountBelowFive) {
  // Below the 5-observation threshold the estimator is the exact sorted
  // sample interpolated at rank q*(n-1) — check every prefix length.
  const double values[4] = {4.0, 1.0, 3.0, 2.0};
  P2Quantile p50(0.50);
  EXPECT_DOUBLE_EQ(p50.Estimate(), 0.0);  // no observations yet
  p50.Record(values[0]);
  EXPECT_DOUBLE_EQ(p50.Estimate(), 4.0);  // n=1: the sample itself
  p50.Record(values[1]);
  EXPECT_DOUBLE_EQ(p50.Estimate(), 2.5);  // n=2: midpoint of {1,4}
  p50.Record(values[2]);
  EXPECT_DOUBLE_EQ(p50.Estimate(), 3.0);  // n=3: middle of {1,3,4}
  p50.Record(values[3]);
  EXPECT_DOUBLE_EQ(p50.Estimate(), 2.5);  // n=4: median of {1,2,3,4}

  P2Quantile p95(0.95);
  p95.Record(10.0);
  p95.Record(20.0);
  // n=2, rank 0.95: 10 + 0.95 * (20 - 10).
  EXPECT_DOUBLE_EQ(p95.Estimate(), 19.5);
}

TEST(P2QuantileTest, DuplicateValueStreamStaysOnTheValue) {
  // A constant stream must estimate the constant at every quantile — the
  // marker-adjustment denominators (pos[i+1] - pos[i-1] etc.) must not
  // divide by zero or drift off the plateau.
  P2Quantile p50(0.50), p99(0.99);
  for (int i = 0; i < 1000; ++i) {
    p50.Record(7.25);
    p99.Record(7.25);
  }
  EXPECT_DOUBLE_EQ(p50.Estimate(), 7.25);
  EXPECT_DOUBLE_EQ(p99.Estimate(), 7.25);

  // Two-valued stream: every quantile estimate stays inside [lo, hi].
  P2Quantile p90(0.90);
  for (int i = 0; i < 1000; ++i) p90.Record(i % 2 == 0 ? 1.0 : 2.0);
  EXPECT_GE(p90.Estimate(), 1.0);
  EXPECT_LE(p90.Estimate(), 2.0);
}

TEST(HistogramTest, OverflowBucketCatchesEverythingAboveLastBound) {
  Histogram h({1.0, 2.0});
  for (double v : {5.0, 100.0, 1e9}) h.Record(v);
  h.Record(2.0);  // exactly on the last bound: belongs to the last bucket
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 0u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 3u);  // overflow
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  std::vector<double> bounds = Histogram::DefaultLatencyBounds();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(std::adjacent_find(bounds.begin(), bounds.end()), bounds.end());
}

// ---------------------------------------------------------------------------
// Concurrency.
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, FourThreadsIncrementWithoutLoss) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("concurrent.counter");
  Histogram& hist = registry.GetHistogram("concurrent.hist", {0.5, 1.5});

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        if (i % 100 == 0) hist.Record(t % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread / 100);
  EXPECT_EQ(snap.counts[0] + snap.counts[1] + snap.counts[2], snap.count);
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST(TracerTest, NestedSpansAggregateByPath) {
  ScopedTelemetry telemetry;
  for (int day = 0; day < 3; ++day) {
    LACB_TRACE_SPAN("day");
    for (int batch = 0; batch < 4; ++batch) {
      LACB_TRACE_SPAN("assign_batch");
      { LACB_TRACE_SPAN("km_solve"); }
    }
    { LACB_TRACE_SPAN("policy_end_day"); }
  }

  std::vector<SpanSnapshot> spans = telemetry.tracer().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  const SpanSnapshot& day = spans[0];
  EXPECT_EQ(day.label, "day");
  EXPECT_EQ(day.count, 3u);
  ASSERT_EQ(day.children.size(), 2u);

  const SpanSnapshot* assign = nullptr;
  const SpanSnapshot* end_day = nullptr;
  for (const SpanSnapshot& child : day.children) {
    if (child.label == "assign_batch") assign = &child;
    if (child.label == "policy_end_day") end_day = &child;
  }
  ASSERT_NE(assign, nullptr);
  ASSERT_NE(end_day, nullptr);
  EXPECT_EQ(assign->count, 12u);
  EXPECT_EQ(end_day->count, 3u);
  ASSERT_EQ(assign->children.size(), 1u);
  EXPECT_EQ(assign->children[0].label, "km_solve");
  EXPECT_EQ(assign->children[0].count, 12u);

  // Timing invariants: children fit inside the parent, self + children
  // totals reconstruct the parent's total.
  EXPECT_GE(day.total_seconds, assign->total_seconds);
  EXPECT_GE(day.min_seconds, 0.0);
  EXPECT_GE(day.max_seconds, day.min_seconds);
  double children_total = assign->total_seconds + end_day->total_seconds;
  EXPECT_NEAR(day.self_seconds, day.total_seconds - children_total, 1e-12);
}

TEST(TracerTest, AggregateByLabelSumsAcrossPositions) {
  ScopedTelemetry telemetry;
  {
    LACB_TRACE_SPAN("outer");
    { LACB_TRACE_SPAN("shared"); }
  }
  { LACB_TRACE_SPAN("shared"); }  // same label, different tree position

  std::map<std::string, SpanAggregate> agg =
      telemetry.tracer().AggregateByLabel();
  EXPECT_EQ(agg.at("outer").count, 1u);
  EXPECT_EQ(agg.at("shared").count, 2u);
  EXPECT_GE(agg.at("shared").total_seconds, 0.0);
}

// A run nested inside an open span (its own ScopedTelemetry) must not cost
// the enclosing span its place: the next span after the nested run still
// nests under the span that was open before it.
TEST(TracerTest, SpanAfterNestedTelemetryKeepsItsParent) {
  ScopedTelemetry outer_run;
  {
    LACB_TRACE_SPAN("outer");
    {
      ScopedTelemetry nested_run;
      LACB_TRACE_SPAN("nested_run");
    }
    { LACB_TRACE_SPAN("inner"); }
  }

  std::vector<SpanSnapshot> spans = outer_run.tracer().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].label, "outer");
  ASSERT_EQ(spans[0].children.size(), 1u);
  EXPECT_EQ(spans[0].children[0].label, "inner");
  EXPECT_EQ(spans[0].children[0].count, 1u);
}

TEST(ScopedTelemetryTest, NestedGuardsIsolateRuns) {
  ScopedTelemetry outer;
  ActiveRegistry().GetCounter("runs").Increment();
  {
    ScopedTelemetry inner;
    ActiveRegistry().GetCounter("runs").Increment(10);
    { LACB_TRACE_SPAN("inner_only"); }
    EXPECT_EQ(inner.registry().GetCounter("runs").value(), 10u);
    EXPECT_EQ(inner.tracer().AggregateByLabel().count("inner_only"), 1u);
  }
  // The inner run's events never reached the outer context.
  EXPECT_EQ(outer.registry().GetCounter("runs").value(), 1u);
  EXPECT_TRUE(outer.tracer().AggregateByLabel().empty());
}

// ---------------------------------------------------------------------------
// JSON model.
// ---------------------------------------------------------------------------

TEST(JsonTest, WriteParsesBack) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", "km_solve");
  doc.Set("count", static_cast<uint64_t>(42));
  doc.Set("ratio", 0.125);
  doc.Set("ok", true);
  doc.Set("missing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Append(static_cast<int64_t>(1));
  arr.Append("two");
  doc.Set("items", std::move(arr));

  Result<JsonValue> parsed = JsonValue::Parse(doc.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = parsed.value();
  EXPECT_EQ(v.Find("name")->as_string(), "km_solve");
  EXPECT_DOUBLE_EQ(v.Find("count")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(v.Find("ratio")->as_number(), 0.125);
  EXPECT_TRUE(v.Find("ok")->as_bool());
  EXPECT_TRUE(v.Find("missing")->is_null());
  ASSERT_EQ(v.Find("items")->items().size(), 2u);
  EXPECT_EQ(v.Find("items")->items()[1].as_string(), "two");
}

TEST(JsonTest, StringEscapesRoundTrip) {
  JsonValue doc = JsonValue::Object();
  doc.Set("s", std::string("tab\t quote\" slash\\ newline\n"));
  Result<JsonValue> parsed = JsonValue::Parse(doc.ToString(0));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("s")->as_string(),
            "tab\t quote\" slash\\ newline\n");
}

TEST(JsonTest, RejectsTrailingJunkAndBadSyntax) {
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} x").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

TEST(JsonTest, FlagsIntegersADoubleCannotHold) {
  const uint64_t two53 = uint64_t{1} << 53;
  EXPECT_TRUE(JsonValue(two53).is_exact());
  EXPECT_FALSE(JsonValue(two53 + 1).is_exact());
  EXPECT_TRUE(JsonValue(two53 + 2).is_exact());
  EXPECT_FALSE(JsonValue(~uint64_t{0}).is_exact());
  EXPECT_TRUE(JsonValue(std::numeric_limits<int64_t>::min()).is_exact());
  EXPECT_FALSE(JsonValue(-static_cast<int64_t>(two53 + 1)).is_exact());
  EXPECT_TRUE(JsonValue(0.1).is_exact());
  struct Case {
    const char* text;
    bool exact;
  };
  for (const Case& c : {Case{"9007199254740992", true},
                        Case{"9007199254740993", false},
                        Case{"-9007199254740993", false},
                        Case{"18446744073709551616", false},
                        Case{"1e300", true}, Case{"-0", true}}) {
    auto v = JsonValue::Parse(c.text);
    ASSERT_TRUE(v.ok()) << c.text;
    EXPECT_EQ(v->is_exact(), c.exact) << c.text;
  }
}

TEST(JsonTest, RefusesNumbersItDoesNotConsumeInFull) {
  for (const char* text : {"1-2", "7e", "3.0.0", "+5", "-", "01", "1.", ".5",
                           "[1-2]", "{\"a\": 7e}"}) {
    auto v = JsonValue::Parse(text);
    ASSERT_FALSE(v.ok()) << text;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
  }
  struct Case {
    const char* text;
    double value;
  };
  for (const Case& c : {Case{"-0", 0.0}, Case{"1e-3", 1e-3},
                        Case{"2.5E+10", 2.5e10}, Case{"0.25", 0.25},
                        Case{"-12e2", -1200.0}}) {
    auto v = JsonValue::Parse(c.text);
    ASSERT_TRUE(v.ok()) << c.text << ": " << v.status().ToString();
    EXPECT_EQ(v->as_number(), c.value) << c.text;
  }
  EXPECT_TRUE(std::signbit(JsonValue::Parse("-0")->as_number()));
  auto spec = scenario::ScenarioSpec::Parse("{\"seed\":1-2}");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, ObjectKeepsInsertionOrderAndReplacesDuplicates) {
  JsonValue doc = JsonValue::Object();
  doc.Set("z", 1.0);
  doc.Set("a", 2.0);
  doc.Set("z", 3.0);  // replace, keep position
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_DOUBLE_EQ(doc.members()[0].second.as_number(), 3.0);
  EXPECT_EQ(doc.members()[1].first, "a");
}

// ---------------------------------------------------------------------------
// RunTelemetry snapshots.
// ---------------------------------------------------------------------------

RunTelemetry MakeSampleRun() {
  ScopedTelemetry telemetry;
  telemetry.registry().GetCounter("matching.km.solves").Increment(12);
  telemetry.registry().GetGauge("lacb.value_table_size").Set(128.0);
  Histogram& h =
      telemetry.registry().GetHistogram("engine.batch_assign_seconds");
  for (int i = 1; i <= 200; ++i) h.Record(i * 1e-4);
  {
    LACB_TRACE_SPAN("day");
    { LACB_TRACE_SPAN("assign_batch"); }
  }
  return CaptureRun(telemetry.registry(), telemetry.tracer(),
                    {{"policy", "lacb"}, {"dataset", "unit"}});
}

TEST(RunTelemetryTest, JsonRoundTripPreservesEverything) {
  RunTelemetry original = MakeSampleRun();

  Result<JsonValue> parsed = JsonValue::Parse(original.ToJson().ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<RunTelemetry> restored_or = RunTelemetry::FromJson(parsed.value());
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  const RunTelemetry& restored = restored_or.value();

  EXPECT_EQ(restored.metadata, original.metadata);
  EXPECT_EQ(restored.metrics.counters, original.metrics.counters);
  EXPECT_EQ(restored.metrics.gauges, original.metrics.gauges);

  ASSERT_EQ(restored.metrics.histograms.count("engine.batch_assign_seconds"),
            1u);
  const HistogramSnapshot& got =
      restored.metrics.histograms.at("engine.batch_assign_seconds");
  const HistogramSnapshot& want =
      original.metrics.histograms.at("engine.batch_assign_seconds");
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  EXPECT_DOUBLE_EQ(got.p50, want.p50);
  EXPECT_DOUBLE_EQ(got.p95, want.p95);
  EXPECT_DOUBLE_EQ(got.p99, want.p99);
  EXPECT_EQ(got.bounds, want.bounds);
  EXPECT_EQ(got.counts, want.counts);

  ASSERT_EQ(restored.spans.size(), 1u);
  EXPECT_EQ(restored.spans[0].label, "day");
  EXPECT_EQ(restored.spans[0].count, 1u);
  ASSERT_EQ(restored.spans[0].children.size(), 1u);
  EXPECT_EQ(restored.spans[0].children[0].label, "assign_batch");
  EXPECT_DOUBLE_EQ(restored.spans[0].total_seconds,
                   original.spans[0].total_seconds);
}

TEST(RunTelemetryTest, SpansByLabelFlattensTree) {
  RunTelemetry run = MakeSampleRun();
  std::map<std::string, SpanAggregate> by_label = run.SpansByLabel();
  EXPECT_EQ(by_label.at("day").count, 1u);
  EXPECT_EQ(by_label.at("assign_batch").count, 1u);
}

}  // namespace
}  // namespace lacb::obs
