// Serving-layer throughput: the online AssignmentService (bounded
// ingestion queue -> deadline micro-batcher -> sharded worker pool)
// driving the paper's KM assignment policy, swept across worker counts.
//
// Claims checked: (i) the served lockstep path reproduces the offline
// engine's realized utility exactly (the serving layer is a faithful
// deployment of the batch protocol, not an approximation); (ii) policy
// compute parallelizes — with >= 4 hardware threads, 4 workers deliver
// > 2x the single-worker throughput (the environment commit is O(batch)
// and serialized; AssignBatch carries the cubic KM cost and is not).
// On machines with fewer cores the scaling check is reported as SKIP —
// the sweep still runs and the numbers are recorded.
//
// A second sweep turns on deterministic fault injection
// (docs/robustness.md) and scales every fault rate together: at each
// point it re-checks the request-conservation identity
//   submitted == assigned + unmatched + failed + dropped_appeals
// from the run's own counters and records throughput, p99 end-to-end
// latency, the degraded-batch fraction, and the retry/redrive counts
// into BENCH_fault.json — the graceful-degradation curve under load.

#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_util.h"

namespace lacb {
namespace {

struct SweepPoint {
  size_t workers = 1;
  double wall_seconds = 0.0;
  double throughput = 0.0;  // requests committed per wall second
  core::PolicyRunResult run;
  obs::HistogramSnapshot assign_latency;
  obs::HistogramSnapshot e2e_latency;
};

Result<SweepPoint> RunSweepPoint(const sim::DatasetConfig& data,
                                 const core::PolicySuiteConfig& suite,
                                 size_t workers,
                                 obs::EventRecorder* recorder = nullptr,
                                 bool attribution = true) {
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kFreeRunReplay;
  opts.serve.num_workers = workers;
  opts.serve.max_batch_size = 32;
  opts.serve.max_batch_delay = std::chrono::milliseconds(2);
  opts.serve.queue_capacity = 1u << 16;  // free-run saturation, no shedding
  // Sample the breathing of the pipeline every 2ms; the series rides into
  // BENCH_serve.json through each run's telemetry snapshot.
  opts.sample_interval = std::chrono::milliseconds(2);
  opts.sample_instruments = {"serve.queue_depth", "serve.carryover_depth",
                             "serve.shed_requests", "serve.submitted",
                             "serve.inflight_batches"};
  opts.recorder = recorder;
  // The performance-attribution plane rides every sweep point so the
  // serve.stage.* and serve.solver.* instruments land in BENCH_serve.json.
  if (attribution) {
    opts.serve.stage_attribution = true;
    opts.serve.solver_introspection = true;
  }

  SweepPoint point;
  point.workers = workers;
  Stopwatch sw;
  LACB_ASSIGN_OR_RETURN(
      point.run, serve::RunPolicyServed(
                     data, core::SuitePolicyFactory(data, suite, 5), opts));
  point.wall_seconds = sw.ElapsedSeconds();

  double committed = 0.0;
  for (double w : point.run.broker_requests) committed += w;
  point.throughput = committed / std::max(1e-9, point.wall_seconds);
  if (point.run.telemetry != nullptr) {
    const auto& hists = point.run.telemetry->metrics.histograms;
    if (auto it = hists.find("serve.batch_assign_seconds"); it != hists.end())
      point.assign_latency = it->second;
    if (auto it = hists.find("serve.e2e_seconds"); it != hists.end())
      point.e2e_latency = it->second;
  }
  // Distinguish the sweep points in BENCH_serve.json.
  point.run.policy.append("@").append(std::to_string(workers)).append("w");
  return point;
}

uint64_t Counter(const core::PolicyRunResult& run, const std::string& name) {
  if (run.telemetry == nullptr) return 0;
  const auto& counters = run.telemetry->metrics.counters;
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Gauge(const core::PolicyRunResult& run, const std::string& name) {
  if (run.telemetry == nullptr) return 0.0;
  const auto& gauges = run.telemetry->metrics.gauges;
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

/// \brief One point of the fault sweep: every injection rate scaled by
/// `rate`, supervision + solve budget + commit retry all armed.
Result<SweepPoint> RunFaultPoint(const sim::DatasetConfig& data,
                                 const core::PolicySuiteConfig& suite,
                                 double rate) {
  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kFreeRunReplay;
  opts.serve.num_workers = 2;
  opts.serve.max_batch_size = 32;
  opts.serve.max_batch_delay = std::chrono::milliseconds(2);
  opts.serve.queue_capacity = 1u << 16;
  // Arm the whole fault-tolerance surface: budgeted solves (generous, so
  // only injected overruns degrade), bounded commit retries, supervision.
  opts.serve.solve_budget = std::chrono::seconds(10);
  opts.serve.commit_max_attempts = 4;
  opts.serve.commit_backoff_base = std::chrono::microseconds(50);
  // Stall detection must sit above the worst-case honest batch latency or
  // slow machines redrive healthy workers (harmless — exactly-once holds —
  // but it muddies the incident counts this sweep reports). The KM solve
  // can take hundreds of ms on a loaded single core, so supervision here
  // effectively covers crashes only; chaos tests exercise tight stall
  // timeouts deliberately.
  opts.serve.stall_timeout = std::chrono::seconds(10);
  opts.serve.supervisor_poll = std::chrono::microseconds(500);
  serve::FaultPlan plan;
  plan.seed = 2027;
  plan.commit_transient_rate = rate;
  plan.commit_after_apply_fraction = 0.5;
  plan.commit_stall_rate = rate / 2;
  plan.solve_over_budget_rate = rate;
  plan.store_stall_rate = rate / 2;
  plan.worker_stall_rate = rate / 2;
  plan.worker_crash_rate = rate / 2;
  plan.stall_duration = std::chrono::microseconds(500);
  opts.serve.fault_plan = plan;

  SweepPoint point;
  Stopwatch sw;
  LACB_ASSIGN_OR_RETURN(
      point.run, serve::RunPolicyServed(
                     data, core::SuitePolicyFactory(data, suite, 5), opts));
  point.wall_seconds = sw.ElapsedSeconds();
  double committed = 0.0;
  for (double w : point.run.broker_requests) committed += w;
  point.throughput = committed / std::max(1e-9, point.wall_seconds);
  if (point.run.telemetry != nullptr) {
    const auto& hists = point.run.telemetry->metrics.histograms;
    if (auto it = hists.find("serve.e2e_seconds"); it != hists.end())
      point.e2e_latency = it->second;
  }
  // Distinguish the sweep points in BENCH_fault.json.
  char label[32];
  std::snprintf(label, sizeof(label), "@fault%.2f", rate);
  point.run.policy.append(label);
  return point;
}

Status Run() {
  bench::PrintHeader("serving layer",
                     "online assignment throughput & latency vs workers");
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << hw << "\n";

  LACB_ASSIGN_OR_RETURN(sim::DatasetConfig data, bench::ScaledCity('A', 4));
  core::PolicySuiteConfig suite;
  std::cout << "dataset: " << data.name << " (" << data.num_brokers
            << " brokers, " << data.num_requests << " requests, "
            << data.num_days << " days), policy: KM\n\n";

  bool all_ok = true;
  bench::BenchTelemetryLog telemetry_log("serve");

  // Faithfulness first: lockstep with one worker must be bit-identical to
  // the offline engine (the full gate lives in serve_test.cc; the bench
  // re-checks the headline number on the bench dataset).
  LACB_ASSIGN_OR_RETURN(auto offline_policy,
                        core::MakeSuitePolicy(data, suite, 5));
  LACB_ASSIGN_OR_RETURN(core::PolicyRunResult offline,
                        core::RunPolicy(data, offline_policy.get()));
  serve::ServedRunOptions lockstep;
  lockstep.mode = serve::LoadMode::kLockstepReplay;
  lockstep.serve.num_workers = 1;
  lockstep.serve.max_batch_size = 1u << 20;
  lockstep.serve.max_batch_delay = std::chrono::seconds(300);
  LACB_ASSIGN_OR_RETURN(
      core::PolicyRunResult served_lockstep,
      serve::RunPolicyServed(data, core::SuitePolicyFactory(data, suite, 5),
                             lockstep));
  all_ok &= bench::ShapeCheck(
      "served lockstep utility == offline engine utility (bit-identical)",
      served_lockstep.total_utility == offline.total_utility,
      TablePrinter::Num(served_lockstep.total_utility, 4) + " vs " +
          TablePrinter::Num(offline.total_utility, 4));

  // Worker sweep under free-run saturation.
  std::vector<SweepPoint> points;
  TablePrinter table;
  table.SetHeader({"workers", "wall_s", "req_per_s", "shed", "assign_p50_ms",
                   "assign_p95_ms", "assign_p99_ms", "e2e_p99_ms"});
  std::vector<core::PolicyRunResult> runs;
  // The widest sweep point also records an event timeline: the exported
  // TRACE_serve.json opens in chrome://tracing / ui.perfetto.dev and shows
  // the request flows hopping producer -> batcher -> worker threads.
  obs::EventRecorder recorder;
  for (size_t workers : {1u, 2u, 4u}) {
    LACB_ASSIGN_OR_RETURN(
        SweepPoint point,
        RunSweepPoint(data, suite, workers,
                      workers == 4 ? &recorder : nullptr));
    LACB_RETURN_NOT_OK(table.AddRow(
        {std::to_string(point.workers),
         TablePrinter::Num(point.wall_seconds, 3),
         TablePrinter::Num(point.throughput, 0),
         std::to_string(point.run.shed_requests),
         TablePrinter::Num(point.assign_latency.p50 * 1e3, 3),
         TablePrinter::Num(point.assign_latency.p95 * 1e3, 3),
         TablePrinter::Num(point.assign_latency.p99 * 1e3, 3),
         TablePrinter::Num(point.e2e_latency.p99 * 1e3, 3)}));
    runs.push_back(point.run);
    points.push_back(std::move(point));
  }
  bench::PrintBoth(table);
  telemetry_log.Add(data, runs);

  all_ok &= bench::ShapeCheck(
      "free-run sweep sheds nothing (queue bound above the day's burst)",
      points[0].run.shed_requests == 0 && points[2].run.shed_requests == 0,
      std::to_string(points[0].run.shed_requests) + " / " +
          std::to_string(points[2].run.shed_requests) + " shed");

  double speedup = points[2].throughput / std::max(1e-9, points[0].throughput);
  if (hw >= 4) {
    all_ok &= bench::ShapeCheck(
        "4 workers > 2x single-worker throughput (policy compute "
        "parallelizes; only the O(batch) commit serializes)",
        speedup > 2.0, TablePrinter::Num(speedup, 2) + "x");
  } else {
    std::cout << "[SHAPE SKIP] 4-worker > 2x scaling needs >= 4 hardware "
                 "threads; this machine has "
              << hw << " (measured: " << TablePrinter::Num(speedup, 2)
              << "x)\n";
  }

  // Attribution evidence: every committed batch carries stage timings and
  // a SolveStats record.
  {
    uint64_t batches = Counter(points[0].run, "serve.batches");
    uint64_t solves = Counter(points[0].run, "serve.solver.solves");
    all_ok &= bench::ShapeCheck(
        "solver introspection covers every committed batch",
        batches > 0 && solves >= batches,
        std::to_string(solves) + " solves / " + std::to_string(batches) +
            " batches");
    const auto& hists = points[0].run.telemetry->metrics.histograms;
    auto solve_stage = hists.find("serve.stage.solve_seconds");
    all_ok &= bench::ShapeCheck(
        "stage-latency histograms populated (one sample per batch stage)",
        solve_stage != hists.end() && solve_stage->second.count >= batches,
        solve_stage == hists.end()
            ? "serve.stage.solve_seconds missing"
            : std::to_string(solve_stage->second.count) + " samples");
  }

  // Critical-path breakdown of the widest point: where a batch's wall
  // time actually goes.
  {
    const core::PolicyRunResult& run = points.back().run;
    const char* stages[] = {"queue_wait", "channel_wait", "solve", "commit",
                            "disposition"};
    double totals[5];
    double sum = 0.0;
    for (int i = 0; i < 5; ++i) {
      totals[i] = Gauge(run, std::string("serve.stage.") + stages[i] +
                                 "_total_seconds");
      sum += totals[i];
    }
    std::cout << "\nbatch critical-path breakdown (4 workers):\n";
    TablePrinter stage_table;
    stage_table.SetHeader({"stage", "total_s", "share"});
    for (int i = 0; i < 5; ++i) {
      LACB_RETURN_NOT_OK(stage_table.AddRow(
          {stages[i], TablePrinter::Num(totals[i], 4),
           TablePrinter::Num(sum <= 0.0 ? 0.0 : totals[i] / sum, 3)}));
    }
    bench::PrintBoth(stage_table);
  }

  // Overhead of the whole attribution plane (stage timers + SolveStats):
  // single-worker re-runs in dark/instrumented pairs, alternating which
  // side runs first, judged on the median per-pair slowdown. One pair reads
  // anywhere in about ±25%, far wider than the 5% it gates; the median of
  // many pairs does not, and drift over the pairs lands on both sides.
  constexpr int kAttributionPairs = 20;
  std::vector<double> slowdowns;
  for (int pair = 0; pair < kAttributionPairs; ++pair) {
    double throughput[2] = {0.0, 0.0};  // [dark, instrumented]
    for (int side = 0; side < 2; ++side) {
      const bool attribution = (side == 1) != (pair % 2 == 1);
      LACB_ASSIGN_OR_RETURN(
          SweepPoint point,
          RunSweepPoint(data, suite, 1, nullptr, attribution));
      throughput[attribution ? 1 : 0] = point.throughput;
    }
    slowdowns.push_back(1.0 - throughput[1] / std::max(1e-9, throughput[0]));
  }
  LACB_ASSIGN_OR_RETURN(double slowdown, stats::Percentile(slowdowns, 0.5));
  LACB_ASSIGN_OR_RETURN(double q1, stats::Percentile(slowdowns, 0.25));
  LACB_ASSIGN_OR_RETURN(double q3, stats::Percentile(slowdowns, 0.75));
  all_ok &= bench::ShapeCheck(
      "attribution cost < 5% single-worker throughput (median of " +
          std::to_string(kAttributionPairs) + " pairs)",
      slowdown < 0.05,
      TablePrinter::Num(slowdown * 100.0, 2) +
          "% slower with attribution, IQR " +
          TablePrinter::Num((q3 - q1) * 100.0, 2) + " points");

  LACB_RETURN_NOT_OK(telemetry_log.Write());
  {
    // Flamegraph of the widest point, straight from its span tree: exact
    // self times per call path, in microseconds.
    LACB_RETURN_NOT_OK(obs::WriteFoldedStacks(
        points.back().run.telemetry->spans, "PROF_serve.folded"));
    std::ifstream prof("PROF_serve.folded");
    size_t stacks = 0;
    std::string line;
    while (std::getline(prof, line)) {
      if (!line.empty()) ++stacks;
    }
    std::cout << "wrote PROF_serve.folded (" << stacks
              << " folded stacks; feed to flamegraph.pl or speedscope)\n";
  }

  // Fault sweep: scale every injection rate together and watch the
  // pipeline degrade gracefully instead of leaking requests.
  std::cout << "\nfault sweep (2 workers, supervised, budgeted solves):\n";
  bench::BenchTelemetryLog fault_log("fault");
  TablePrinter fault_table;
  fault_table.SetHeader({"fault_rate", "req_per_s", "e2e_p99_ms", "degraded",
                         "retries", "redriven", "crashes", "failed",
                         "conserved"});
  std::vector<core::PolicyRunResult> fault_runs;
  bool all_conserved = true;
  bool faulted_degraded = false;
  uint64_t no_fault_incidents = 0;
  for (double rate : {0.0, 0.05, 0.10, 0.20}) {
    LACB_ASSIGN_OR_RETURN(SweepPoint point,
                          RunFaultPoint(data, suite, rate));
    uint64_t submitted = Counter(point.run, "serve.submitted");
    uint64_t assigned = Counter(point.run, "serve.assigned_requests");
    uint64_t unmatched = Counter(point.run, "serve.unmatched_requests");
    uint64_t failed = Counter(point.run, "serve.failed_requests");
    uint64_t dropped = Counter(point.run, "serve.dropped_appeals");
    uint64_t degraded = Counter(point.run, "serve.degraded_batches");
    uint64_t batches = Counter(point.run, "serve.batches");
    uint64_t retries = Counter(point.run, "serve.commit_retries");
    uint64_t redriven = Counter(point.run, "serve.redriven_batches");
    uint64_t crashes = Counter(point.run, "serve.worker_crashes");
    bool conserved = submitted == assigned + unmatched + failed + dropped;
    all_conserved &= conserved;
    if (rate > 0.0) faulted_degraded |= degraded > 0;
    if (rate == 0.0) no_fault_incidents = retries + redriven + crashes +
                                          degraded + failed;
    double degraded_frac =
        batches == 0 ? 0.0
                     : static_cast<double>(degraded) / static_cast<double>(batches);
    LACB_RETURN_NOT_OK(fault_table.AddRow(
        {TablePrinter::Num(rate, 2), TablePrinter::Num(point.throughput, 0),
         TablePrinter::Num(point.e2e_latency.p99 * 1e3, 3),
         TablePrinter::Num(degraded_frac, 3), std::to_string(retries),
         std::to_string(redriven), std::to_string(crashes),
         std::to_string(failed), conserved ? "yes" : "NO"}));
    fault_runs.push_back(point.run);
  }
  bench::PrintBoth(fault_table);
  fault_log.Add(data, fault_runs);
  LACB_RETURN_NOT_OK(fault_log.Write());

  all_ok &= bench::ShapeCheck(
      "request conservation (submitted == assigned + unmatched + failed + "
      "dropped) holds at every fault rate",
      all_conserved, all_conserved ? "all points exact" : "ledger leak");
  all_ok &= bench::ShapeCheck(
      "zero-fault point is incident-free (no retries, redrives, crashes, "
      "degradations, or failures)",
      no_fault_incidents == 0, std::to_string(no_fault_incidents) +
                                   " incidents at rate 0");
  all_ok &= bench::ShapeCheck(
      "injected over-budget solves surface as degraded batches",
      faulted_degraded, faulted_degraded ? "degraded > 0 under faults"
                                         : "no degradation seen");

  // Timeline + time-series artifacts for the 4-worker point. CI uploads
  // these next to BENCH_serve.json.
  LACB_RETURN_NOT_OK(
      obs::WriteChromeTrace(recorder, "TRACE_serve.json", "bench_serve"));
  std::cout << "wrote TRACE_serve.json ("
            << recorder.Snapshot().events.size() << " events)\n";
  const core::PolicyRunResult& widest = points.back().run;
  if (widest.telemetry != nullptr && !widest.telemetry->series.empty()) {
    LACB_RETURN_NOT_OK(
        widest.telemetry->series.WriteJsonl("SERIES_serve.jsonl"));
    std::cout << "wrote SERIES_serve.jsonl ("
              << widest.telemetry->series.points.size() << " samples)\n";
  }
  std::cout << "\n"
            << (all_ok ? "ALL SHAPE CHECKS PASSED" : "SHAPE CHECKS FAILED")
            << "\n";
  return Status::OK();
}

}  // namespace
}  // namespace lacb

int main() {
  lacb::Status s = lacb::Run();
  if (!s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  return 0;
}
