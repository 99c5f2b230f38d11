// Exporter plane of lacb/obs: event-timeline recording (spans as slices)
// + Chrome trace JSON, folded-stack flamegraphs from the span tree,
// Prometheus text exposition + the HTTP scrape endpoint, and
// time-series telemetry — plus the gate that a fully instrumented
// lockstep serve run stays bit-identical to the offline engine.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lacb/core/engine.h"
#include "lacb/core/policy_suite.h"
#include "lacb/obs/obs.h"
#include "lacb/serve/serve.h"

namespace lacb {
namespace {

using obs::ChromeTraceJson;
using obs::EventPhase;
using obs::EventRecorder;
using obs::JsonValue;
using obs::TraceSnapshot;

sim::DatasetConfig TinyConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "obs_export";
  cfg.num_brokers = 30;
  cfg.num_requests = 360;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;
  cfg.seed = 321;
  return cfg;
}

serve::ServedRunOptions LockstepOptions() {
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kLockstepReplay;
  opts.serve.num_workers = 1;
  opts.serve.max_batch_size = 1u << 20;
  opts.serve.max_batch_delay = std::chrono::seconds(300);
  opts.serve.queue_capacity = 4096;
  return opts;
}

// Minimal blocking HTTP client for the exposition smoke checks.
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// EventRecorder.
// ---------------------------------------------------------------------------

TEST(EventRecorderTest, MergesThreadsInTimestampOrder) {
  EventRecorder recorder;
  recorder.Begin("main_work");
  std::thread worker([&recorder] {
    recorder.Begin("worker_work");
    recorder.Instant("tick");
    recorder.End("worker_work");
  });
  worker.join();
  recorder.End("main_work");

  TraceSnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.threads, 2u);
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.events.size(), 5u);
  for (size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LE(snap.events[i - 1].ts_micros, snap.events[i].ts_micros);
  }
  std::set<uint32_t> tids;
  for (const auto& e : snap.events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 2u);
}

TEST(EventRecorderTest, DropOldestKeepsNewestAndCounts) {
  EventRecorder recorder(/*capacity_per_thread=*/4);
  for (uint64_t i = 1; i <= 10; ++i) recorder.Instant("tick", i);

  EXPECT_EQ(recorder.dropped(), 6u);
  TraceSnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.dropped, 6u);
  ASSERT_EQ(snap.events.size(), 4u);
  // Drop-oldest: the retained ring is the newest four, in order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap.events[i].flow_id, 7u + i);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export.
// ---------------------------------------------------------------------------

// Walks exported traceEvents and asserts every "B" has a matching "E" on
// the same thread (LIFO per tid, like a real trace viewer enforces).
void ExpectBalancedSlices(const JsonValue& trace) {
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::map<int64_t, std::vector<std::string>> open;  // tid -> slice stack
  for (const JsonValue& e : events->items()) {
    const std::string ph = e.Find("ph")->as_string();
    if (ph != "B" && ph != "E") continue;
    int64_t tid = static_cast<int64_t>(e.Find("tid")->as_number());
    const std::string name = e.Find("name")->as_string();
    if (ph == "B") {
      open[tid].push_back(name);
    } else {
      ASSERT_FALSE(open[tid].empty())
          << "E without B on tid " << tid << ": " << name;
      EXPECT_EQ(open[tid].back(), name);
      open[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed slice on tid " << tid;
  }
}

// Spans are the timeline's only source of slices: nothing is recorded
// without a recorder, and under one nested spans become balanced B/E pairs
// in LIFO order, still aggregated into the run's span tree.
TEST(ChromeTraceTest, SpansRecordBalancedSlicesOnlyUnderARecorder) {
  EventRecorder recorder;
  obs::ScopedTelemetry telemetry;
  ASSERT_EQ(obs::ActiveEventRecorder(), nullptr);
  { LACB_TRACE_SPAN("orphan"); }
  EXPECT_TRUE(recorder.Snapshot().events.empty());

  {
    obs::ScopedContextAdoption adopt(&telemetry.registry(),
                                     &telemetry.tracer(), &recorder);
    LACB_TRACE_SPAN("outer");
    { LACB_TRACE_SPAN("first"); }
    {
      LACB_TRACE_SPAN("second");
      { LACB_TRACE_SPAN("leaf"); }
    }
  }
  { LACB_TRACE_SPAN("after"); }
  EXPECT_EQ(obs::ActiveEventRecorder(), nullptr);

  TraceSnapshot snap = recorder.Snapshot();
  const std::vector<std::pair<std::string, EventPhase>> expected = {
      {"outer", EventPhase::kBegin},  {"first", EventPhase::kBegin},
      {"first", EventPhase::kEnd},    {"second", EventPhase::kBegin},
      {"leaf", EventPhase::kBegin},   {"leaf", EventPhase::kEnd},
      {"second", EventPhase::kEnd},   {"outer", EventPhase::kEnd}};
  ASSERT_EQ(snap.events.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(snap.events[i].name, expected[i].first) << "event " << i;
    EXPECT_EQ(snap.events[i].phase, expected[i].second) << "event " << i;
  }
  ExpectBalancedSlices(ChromeTraceJson(snap, "spans"));

  std::map<std::string, obs::SpanAggregate> agg =
      telemetry.tracer().AggregateByLabel();
  for (const char* label : {"orphan", "outer", "first", "second", "leaf",
                            "after"}) {
    EXPECT_EQ(agg.count(label), 1u) << label;
  }
}

TEST(ChromeTraceTest, ExportParsesWithMetadataAndBalancedSlices) {
  EventRecorder recorder;
  recorder.Begin("outer");
  recorder.Begin("inner");
  recorder.End("inner");
  recorder.End("outer");
  std::thread t([&recorder] {
    recorder.Begin("thread_slice");
    recorder.End("thread_slice");
  });
  t.join();

  JsonValue doc = ChromeTraceJson(recorder.Snapshot(), "unit");
  // Serialize + reparse: the on-disk artifact must be valid JSON.
  Result<JsonValue> parsed = JsonValue::Parse(doc.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& trace = parsed.value();

  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->items().size(), 7u);  // metadata row + 6 events
  const JsonValue& meta = events->items()[0];
  EXPECT_EQ(meta.Find("ph")->as_string(), "M");
  EXPECT_EQ(meta.Find("name")->as_string(), "process_name");
  EXPECT_EQ(meta.Find("args")->Find("name")->as_string(), "unit");

  ExpectBalancedSlices(trace);
  EXPECT_DOUBLE_EQ(
      trace.Find("otherData")->Find("dropped_events")->as_number(), 0.0);
}

TEST(ChromeTraceTest, WriteChromeTraceProducesLoadableFile) {
  EventRecorder recorder;
  recorder.Begin("slice");
  recorder.End("slice");
  std::string path = ::testing::TempDir() + "obs_export_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(recorder, path).ok());

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

// The acceptance gate: one request traced across the serve pipeline. The
// flow arrow must start at the producer's enqueue, step on the batcher
// thread, and terminate on a worker thread — at least two distinct tids.
TEST(ChromeTraceTest, ServeRunConnectsRequestFlowAcrossThreads) {
  EventRecorder recorder;
  serve::ServedRunOptions opts = LockstepOptions();
  opts.recorder = &recorder;

  core::PolicySuiteConfig suite;
  suite.seed = 55;
  sim::DatasetConfig cfg = TinyConfig();
  auto served =
      serve::RunPolicyServed(cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  TraceSnapshot snap = recorder.Snapshot();
  ASSERT_GT(snap.events.size(), 0u);
  EXPECT_GE(snap.threads, 3u);  // producer, batcher, worker

  // Group flow events by id; require at least one flow that begins,
  // terminates, and touches >= 2 threads.
  std::map<uint64_t, std::set<uint32_t>> flow_tids;
  std::map<uint64_t, std::set<EventPhase>> flow_phases;
  for (const auto& e : snap.events) {
    if (e.flow_id == 0) continue;
    if (e.phase != EventPhase::kFlowBegin &&
        e.phase != EventPhase::kFlowStep && e.phase != EventPhase::kFlowEnd) {
      continue;
    }
    flow_tids[e.flow_id].insert(e.tid);
    flow_phases[e.flow_id].insert(e.phase);
  }
  size_t cross_thread_flows = 0;
  for (const auto& [id, tids] : flow_tids) {
    const auto& phases = flow_phases[id];
    if (tids.size() >= 2 && phases.count(EventPhase::kFlowBegin) > 0 &&
        phases.count(EventPhase::kFlowEnd) > 0) {
      ++cross_thread_flows;
    }
  }
  EXPECT_GT(cross_thread_flows, 0u)
      << "no request flow connects two threads end-to-end";

  // The exported document is a valid trace: parses, slices balanced.
  Result<JsonValue> parsed =
      JsonValue::Parse(ChromeTraceJson(snap, "serve").ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBalancedSlices(parsed.value());

  // The worker's spans are on the timeline too, nested as in the span
  // tree: a solver-side slice opens inside serve.batch.
  std::map<uint32_t, std::vector<std::string>> open;  // tid -> slice stack
  bool nested_solver_slice = false;
  for (const auto& e : snap.events) {
    std::vector<std::string>& stack = open[e.tid];
    if (e.phase == EventPhase::kBegin) {
      const std::string name = e.name;
      if ((name == "km_solve" || name == "serve.utility_matrix") &&
          std::find(stack.begin(), stack.end(), "serve.batch") !=
              stack.end()) {
        nested_solver_slice = true;
      }
      stack.push_back(name);
    } else if (e.phase == EventPhase::kEnd && !stack.empty()) {
      stack.pop_back();
    }
  }
  EXPECT_TRUE(nested_solver_slice)
      << "no km_solve / serve.utility_matrix slice inside serve.batch";
}

// ---------------------------------------------------------------------------
// Flamegraph from the span tree.
// ---------------------------------------------------------------------------

TEST(FoldedStacksTest, WritesSelfMicrosPerPathAndSkipsZeroWeight) {
  auto span = [](const std::string& label, double self_seconds,
                 std::vector<obs::SpanSnapshot> children = {}) {
    obs::SpanSnapshot s;
    s.label = label;
    s.count = 1;
    s.self_seconds = self_seconds;
    s.children = std::move(children);
    return s;
  };
  // a (1.5 ms self) -> {b (250 us), idle (0)}, and a second root c (2 s)
  // whose only child z rounds to zero microseconds.
  std::vector<obs::SpanSnapshot> forest = {
      span("a", 1.5e-3, {span("b", 250e-6), span("idle", 0.0)}),
      span("c", 2.0, {span("z", 1e-7)})};
  const std::string path = ::testing::TempDir() + "obs_export_stacks.folded";
  ASSERT_TRUE(obs::WriteFoldedStacks(forest, path).ok());

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a 1500", "a;b 250",
                                             "c 2000000"}));
  for (const std::string& line : lines) {
    // Every line is "stack <int>" with a non-empty stack and positive int.
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
    EXPECT_GT(std::stoll(count), 0) << line;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Prometheus exposition.
// ---------------------------------------------------------------------------

// Parses "name value" sample lines (comments skipped) into a map.
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "malformed sample line: " << line;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

TEST(PrometheusTest, NameManglingReplacesDots) {
  EXPECT_EQ(obs::PrometheusName("serve.queue_depth"), "serve_queue_depth");
  EXPECT_EQ(obs::PrometheusName("engine.batch_close.size"),
            "engine_batch_close_size");
  EXPECT_EQ(obs::PrometheusName("plain"), "plain");
}

TEST(PrometheusTest, RoundTripsCounterGaugeHistogram) {
  obs::MetricRegistry registry;
  registry.GetCounter("serve.submitted").Increment(42);
  registry.GetGauge("serve.queue_depth").Set(7.5);
  obs::Histogram& h =
      registry.GetHistogram("serve.latency", std::vector<double>{1.0, 2.0});
  h.Record(0.5);
  h.Record(1.5);
  h.Record(99.0);  // overflow bucket

  std::string text = obs::RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE serve_submitted counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_latency histogram"), std::string::npos);

  std::map<std::string, double> samples = ParseExposition(text);
  EXPECT_DOUBLE_EQ(samples.at("serve_submitted"), 42.0);
  EXPECT_DOUBLE_EQ(samples.at("serve_queue_depth"), 7.5);
  // Cumulative buckets: le="1" holds 1, le="2" holds 2, +Inf equals count.
  EXPECT_DOUBLE_EQ(samples.at("serve_latency_bucket{le=\"1\"}"), 1.0);
  EXPECT_DOUBLE_EQ(samples.at("serve_latency_bucket{le=\"2\"}"), 2.0);
  EXPECT_DOUBLE_EQ(samples.at("serve_latency_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("serve_latency_count"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("serve_latency_sum"), 101.0);
  // Streaming quantiles ride along as gauges.
  EXPECT_EQ(samples.count("serve_latency_p50"), 1u);
  EXPECT_EQ(samples.count("serve_latency_p99"), 1u);
}

TEST(ExpositionServerTest, ServesMetricsHealthAndNotFound) {
  obs::MetricRegistry registry;
  registry.GetCounter("unit.scrape_me").Increment(5);

  auto server = obs::ExpositionServer::Start(
      [&registry] { return registry.Snapshot(); });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  int port = server.value()->port();
  ASSERT_GT(port, 0);

  std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("unit_scrape_me 5"), std::string::npos);

  std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  EXPECT_GE(server.value()->scrapes(), 1u);
  server.value()->Stop();
  server.value()->Stop();  // idempotent
}

TEST(ExpositionServerTest, HealthzReflectsHealthStateMachine) {
  obs::MetricRegistry registry;
  // The probe walks the full state machine across successive scrapes.
  std::mutex mu;
  obs::HealthReport report{obs::HealthState::kHealthy, "serving"};

  obs::ExpositionOptions options;
  options.health_fn = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return report;
  };
  auto server = obs::ExpositionServer::Start(
      [&registry] { return registry.Snapshot(); }, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  int port = server.value()->port();

  // Healthy: 200 with the state name in the body.
  std::string healthy = HttpGet(port, "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("healthy: serving"), std::string::npos);

  // Degraded still serves traffic: 200, but the body says so (load
  // balancers keep routing; operators see the distinction).
  {
    std::lock_guard<std::mutex> lock(mu);
    report = {obs::HealthState::kDegraded, "1/4 workers unavailable"};
  }
  std::string degraded = HttpGet(port, "/healthz");
  EXPECT_NE(degraded.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(degraded.find("degraded: 1/4 workers unavailable"),
            std::string::npos);

  // Unhealthy: 503 so orchestrators stop routing to this instance.
  {
    std::lock_guard<std::mutex> lock(mu);
    report = {obs::HealthState::kUnhealthy, "all workers crashed"};
  }
  std::string unhealthy = HttpGet(port, "/healthz");
  EXPECT_NE(unhealthy.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(unhealthy.find("unhealthy: all workers crashed"),
            std::string::npos);

  server.value()->Stop();
}

TEST(ExpositionServerTest, AssignmentServiceStartsListenerFromOptions) {
  obs::ScopedTelemetry telemetry;
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;

  serve::ServeOptions options;
  options.exposition_port = 0;  // ephemeral
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service.value()->Start().ok());

  int port = service.value()->exposition_port();
  ASSERT_GT(port, 0);
  std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("serve_submitted"), std::string::npos);
  EXPECT_NE(metrics.find("serve_queue_depth"), std::string::npos);

  // Scrape-time store gauges over a known residual vector: no work is
  // committed, so the residuals are the installed capacities, and brokers
  // left at 0 (unknown) are excluded.
  std::vector<double> capacities(cfg.num_brokers, 0.0);
  capacities[3] = 5.0;
  capacities[7] = 1.0;
  capacities[11] = 2.0;
  service.value()->SetStoreCapacities(capacities);
  ASSERT_NE(HttpGet(port, "/metrics").find("serve_store_residual_gini"),
            std::string::npos);
  obs::MetricsSnapshot snap = telemetry.registry().Snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("serve.store.residual_min"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("serve.store.residual_median"), 2.0);
  // Mean absolute difference over all ordered pairs of {1, 2, 5}, divided
  // by twice the mean: 16 / 9 / (2 · 8 / 3) = 1/3.
  EXPECT_NEAR(snap.gauges.at("serve.store.residual_gini"), 1.0 / 3.0, 1e-12);
  service.value()->Shutdown();
}

// ---------------------------------------------------------------------------
// Time-series telemetry.
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, SamplerSelectsInstrumentsAndEvaluatesProbes) {
  obs::MetricRegistry registry;
  registry.GetCounter("a.count").Increment(3);
  registry.GetGauge("b.depth").Set(2.0);
  registry.GetGauge("c.ignored").Set(99.0);

  obs::TimeSeriesSampler::Options opts;
  opts.instruments = {"a.count", "b.depth", "never.registered"};
  opts.time_unit = "day";
  obs::TimeSeriesSampler sampler(opts);
  double probe_value = 10.0;
  sampler.AddProbe("derived.probe", [&probe_value] { return probe_value; });

  sampler.Sample(0.0, registry);
  registry.GetCounter("a.count").Increment();
  probe_value = 20.0;
  sampler.Sample(1.0, registry);

  obs::TimeSeries series = sampler.Series();
  EXPECT_EQ(series.time_unit, "day");
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_DOUBLE_EQ(series.points[0].values.at("a.count"), 3.0);
  EXPECT_DOUBLE_EQ(series.points[1].values.at("a.count"), 4.0);
  EXPECT_DOUBLE_EQ(series.points[0].values.at("b.depth"), 2.0);
  EXPECT_DOUBLE_EQ(series.points[0].values.at("derived.probe"), 10.0);
  EXPECT_DOUBLE_EQ(series.points[1].values.at("derived.probe"), 20.0);
  // Unselected and absent instruments are excluded, not zero-filled.
  EXPECT_EQ(series.points[0].values.count("c.ignored"), 0u);
  EXPECT_EQ(series.points[0].values.count("never.registered"), 0u);
}

TEST(TimeSeriesTest, JsonAndJsonlRoundTrip) {
  obs::TimeSeries series;
  series.time_unit = "day";
  series.points.push_back({0.0, {{"x", 1.0}, {"y", 2.5}}});
  series.points.push_back({1.0, {{"x", 3.0}}});

  Result<JsonValue> parsed = JsonValue::Parse(series.ToJson().ToString());
  ASSERT_TRUE(parsed.ok());
  Result<obs::TimeSeries> restored = obs::TimeSeries::FromJson(parsed.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->time_unit, "day");
  ASSERT_EQ(restored->points.size(), 2u);
  EXPECT_DOUBLE_EQ(restored->points[0].values.at("y"), 2.5);
  EXPECT_DOUBLE_EQ(restored->points[1].values.at("x"), 3.0);

  std::string path = ::testing::TempDir() + "obs_export_series.jsonl";
  ASSERT_TRUE(series.WriteJsonl(path).ok());
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    Result<JsonValue> row = JsonValue::Parse(line);
    ASSERT_TRUE(row.ok()) << "line " << lines << ": " << line;
    EXPECT_NE(row.value().Find("t"), nullptr);
    EXPECT_NE(row.value().Find("values"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(TimeSeriesTest, IrregularManualIntervalsArePreservedVerbatim) {
  // Manual cadence makes no spacing assumptions: bursty, near-duplicate,
  // and widely spaced timestamps all land as-is, in call order.
  obs::MetricRegistry registry;
  obs::Counter& ticks = registry.GetCounter("t.count");
  obs::TimeSeriesSampler sampler;
  const double times[] = {0.0, 0.001, 0.002, 5.0, 5.0001, 3600.0};
  for (double t : times) {
    ticks.Increment();
    sampler.Sample(t, registry);
  }
  obs::TimeSeries series = sampler.Series();
  ASSERT_EQ(series.points.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(series.points[i].t, times[i]) << "point " << i;
    EXPECT_DOUBLE_EQ(series.points[i].values.at("t.count"),
                     static_cast<double>(i + 1));
  }
}

TEST(TimeSeriesTest, RunShorterThanOneIntervalStillYieldsAFinalSample) {
  // A run can finish before the periodic clock ever fires; StopPeriodic
  // takes one last sample so short runs are never empty.
  obs::ScopedTelemetry telemetry;
  telemetry.registry().GetGauge("short.gauge").Set(7.0);
  obs::TimeSeriesSampler sampler;
  ASSERT_TRUE(sampler.StartPeriodic(std::chrono::milliseconds(60000)).ok());
  // Re-arming while running is an error, as is a zero interval.
  EXPECT_FALSE(sampler.StartPeriodic(std::chrono::milliseconds(1)).ok());
  sampler.StopPeriodic();
  sampler.StopPeriodic();  // idempotent

  obs::TimeSeries series = sampler.Series();
  ASSERT_GE(series.points.size(), 1u);
  EXPECT_DOUBLE_EQ(series.points.back().values.at("short.gauge"), 7.0);

  EXPECT_FALSE(sampler.StartPeriodic(std::chrono::milliseconds(0)).ok());
}

// ---------------------------------------------------------------------------
// Determinism under full instrumentation.
// ---------------------------------------------------------------------------

// The observability plane must be a pure observer: a lockstep single-worker
// serve run with event recording, wall-clock sampling, and a live scrape
// endpoint all enabled produces bit-identical results to core::RunPolicy.
TEST(InstrumentedDeterminismTest, LockstepServeMatchesOfflineEngine) {
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  const size_t index = 8;  // LACB-Opt: the heaviest stateful policy

  auto offline_policy = core::MakeSuitePolicy(cfg, suite, index);
  ASSERT_TRUE(offline_policy.ok());
  auto offline = core::RunPolicy(cfg, offline_policy->get());
  ASSERT_TRUE(offline.ok());

  EventRecorder recorder;
  serve::ServedRunOptions opts = LockstepOptions();
  opts.recorder = &recorder;
  opts.sample_interval = std::chrono::milliseconds(5);
  opts.sample_instruments = {"serve.queue_depth", "serve.carryover_depth",
                             "serve.shed_requests", "serve.submitted"};
  opts.serve.exposition_port = 0;

  auto served = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, index), opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_EQ(offline->policy, served->policy);
  EXPECT_DOUBLE_EQ(offline->total_utility, served->total_utility);
  ASSERT_EQ(offline->daily_utility.size(), served->daily_utility.size());
  for (size_t d = 0; d < offline->daily_utility.size(); ++d) {
    EXPECT_DOUBLE_EQ(offline->daily_utility[d], served->daily_utility[d])
        << "day " << d;
  }
  EXPECT_EQ(offline->total_appeals, served->total_appeals);
  EXPECT_EQ(served->shed_requests, 0u);

  // Instrumentation actually observed the run.
  EXPECT_GT(recorder.Snapshot().events.size(), 0u);
  ASSERT_NE(served->telemetry, nullptr);
  EXPECT_GE(served->telemetry->series.points.size(), 1u);
  EXPECT_EQ(served->telemetry->series.time_unit, "seconds");
}

}  // namespace
}  // namespace lacb
