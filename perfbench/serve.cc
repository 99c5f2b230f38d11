// serve_open: the in-memory AssignmentService (LACB-Opt, 2 workers, no
// persistence) on the CityA preset scaled to 1103 brokers, over the
// preset's 21-day horizon.
//
// Every day has two phases. Phase 1 is an open loop: requests are due at
// absolute times drawn from a seeded Poisson process at a fixed rate, and
// each request's latency runs from its due time to its terminal
// disposition, so a stall is charged to every request queued behind it.
// The generator sleeps until just before each due time and spins the last
// stretch (plain sleeps wake late by milliseconds on a shared host).
// Phase 2, after the service drains, is a saturation run: a closed window
// of in-flight requests, kept below the admission bound so nothing is
// shed, measures the highest sustained rate. Each figure is a per-day
// rate or a per-window quantile, and the run reports the median: a host
// that slows for a second moves a few days or windows, not the result.
//
// Threads: this generator, the service's batcher and its 2 workers. The
// traced run keeps a second, idle service beside the measured one (see
// RunServe).

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "lacb/common/rng.h"
#include "lacb/core/policy_suite.h"
#include "lacb/obs/context.h"
#include "lacb/serve/service.h"
#include "lacb/sim/dataset.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using lacb::Result;
using lacb::Status;

constexpr size_t kLacbOpt = 8;  // suite index of LACB-Opt
constexpr size_t kWorkers = 2;
// The open loop offers Poisson arrivals at a fixed rate, about 40% of the
// ~30k/s at which a 4-core host saturates at the start of a day. At 60%
// (18k/s), a host that slowed by a third pushed the service past its
// queueing knee: in one set of ten runs, three read a p50 of 4.4-8.7 ms
// against 3.0-3.7 ms. Far lower rates spread more again: a lightly loaded
// service sleeps between batches, and idle vCPUs wake late.
constexpr double kOpenLoopRps = 12000.0;
// 105 000 open-loop requests over the 21 days put over 1 000 latency
// samples beyond the p99; the saturation segment serves as many again.
// That is about 9 requests per broker-day against the preset's 0.9, still
// well below CityA's capacity knee of ~32 a day (see README.md).
constexpr size_t kOpenLoopPerDay = 5000;
constexpr size_t kSaturationPerDay = 5000;
// Saturation in-flight window: 16 full batches, far below
// ServeOptions::queue_capacity (4096), so the segment never sheds.
constexpr uint64_t kSaturationWindow = 1024;
// The generator sleeps until this long before a due time, then spins.
constexpr auto kSpinLead = std::chrono::microseconds(300);
constexpr size_t kSetupRepeats = 5;
// Open-loop latency quantiles are taken per window of this many
// consecutive arrivals (40 samples beyond the p99); see WindowedQuantile.
constexpr size_t kLatencyWindow = 4000;
// Batch decision quantiles are taken per window of this many batches.
constexpr size_t kBatchWindow = 500;

// The CityA roster scaled to 1103 brokers, under the preset's own seed and
// horizon; the workload seed draws the traffic (see offline.cc for why).
Result<lacb::sim::DatasetConfig> ServeConfig() {
  LACB_ASSIGN_OR_RETURN(lacb::sim::DatasetConfig preset,
                        lacb::sim::CityPreset('A'));
  lacb::sim::DatasetConfig config = lacb::sim::ScaleDown(preset, 0.2);
  config.num_requests =
      (kOpenLoopPerDay + kSaturationPerDay) * config.num_days;
  return config;
}

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Per-request ledger filled by the disposition sink (worker threads) and
// the generator. Each id is written by one party at a time; the service's
// queue and WaitIdle order the hand-offs.
struct Ledger {
  explicit Ledger(size_t n) : due_ns(n, 0), terminal_ns(n), terminals(n) {}
  std::vector<int64_t> due_ns;
  std::vector<std::atomic<int64_t>> terminal_ns;
  std::vector<std::atomic<uint32_t>> terminals;
  std::atomic<uint64_t> terminal_total{0};
  std::atomic<bool> record_batches{false};
  std::mutex mu;
  std::vector<double> batch_ms;  // guarded by mu
};

void OnDisposition(Ledger* ledger, const lacb::serve::BatchDisposition& d) {
  const int64_t now = Ns(Clock::now());
  int64_t last_due = 0;
  uint64_t count = 0;
  for (const auto* ids : {&d.assigned, &d.unmatched, &d.failed, &d.dropped}) {
    for (int64_t id : *ids) {
      if (id < 0 || static_cast<size_t>(id) >= ledger->due_ns.size()) {
        continue;  // not this run's traffic
      }
      ledger->terminal_ns[id].store(now, std::memory_order_relaxed);
      ledger->terminals[id].fetch_add(1, std::memory_order_relaxed);
      last_due = std::max(last_due, ledger->due_ns[id]);
      ++count;
    }
  }
  ledger->terminal_total.fetch_add(count, std::memory_order_release);
  if (count > 0 && ledger->record_batches.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(ledger->mu);
    ledger->batch_ms.push_back(static_cast<double>(now - last_due) * 1e-6);
  }
}

// One service and everything measured on it over the horizon.
struct Lane {
  Lane(size_t total, bool traced) : ledger(total), traced(traced) {}
  Ledger ledger;
  const bool traced;
  std::unique_ptr<lacb::serve::AssignmentService> service;
  std::vector<double> setup_s;
  std::vector<double> latency_ms;      // open loop, in arrival order
  std::vector<double> batch_ms;        // open loop, in disposition order
  std::vector<double> late_ms;         // generator lateness
  std::vector<double> saturation_rps;  // per day
  std::vector<double> turnover_s;      // per day
  double close_s = 0.0;
  double submit_s = 0.0;     // traced lanes only
  double open_loop_s = 0.0;  // first due time to last send, summed
  // Calibration samples, every CPU at each day's start and after its
  // saturation segment (the service idle), and the time they took.
  std::vector<double> calibration_ms;
  std::vector<double> setup_calibration_ms;
  double calibration_s = 0.0;
  double closed_day_utility = 0.0;
  uint64_t open_loop_requests = 0;
  uint64_t closed_day_requests = 0;
  uint64_t overloaded_broker_days = 0;
  uint64_t broker_days = 0;
  uint64_t attempted = 0;
  lacb::serve::ServeStats stats;
  bool every_id_once = true;
};

// Creates and starts the lane's service `repeats` times (set-up is timed
// each time), keeping the last.
Status StartLane(const lacb::sim::DatasetConfig& config,
                 const lacb::policy::PolicyFactory& factory, size_t repeats,
                 Lane* lane) {
  lacb::serve::ServeOptions options;
  options.num_workers = kWorkers;
  options.stage_attribution = lane->traced;
  options.solver_introspection = lane->traced;
  Ledger* ledger = &lane->ledger;
  options.disposition_sink = [ledger](const lacb::serve::BatchDisposition& d) {
    OnDisposition(ledger, d);
  };
  for (size_t rep = 0; rep < repeats; ++rep) {
    if (lane->service != nullptr) lane->service->Shutdown();
    Clock::time_point t0 = Clock::now();
    LACB_ASSIGN_OR_RETURN(
        lane->service,
        lacb::serve::AssignmentService::Create(config, factory, options));
    LACB_RETURN_NOT_OK(lane->service->Start());
    lane->setup_s.push_back(SecondsBetween(t0, Clock::now()));
    for (double ms : CalibrateEachCpu()) {
      lane->setup_calibration_ms.push_back(ms);
    }
  }
  return Status::OK();
}

// Runs the calibration kernel on every CPU while the lane's service is
// idle, outside every timed segment.
void Calibrate(Lane* lane) {
  Clock::time_point t0 = Clock::now();
  for (double ms : CalibrateEachCpu()) lane->calibration_ms.push_back(ms);
  lane->calibration_s += SecondsBetween(t0, Clock::now());
}

// Serves one day on the lane: the open-loop segment at the given arrival
// offsets, a drain, the saturation segment, and (unless it is the last
// day, which Shutdown leaves open) the day's close.
Status ServeDay(Lane* lane, size_t day,
                const std::vector<const lacb::sim::Request*>& requests,
                const std::vector<double>& offsets, bool last_day) {
  lacb::serve::AssignmentService* service = lane->service.get();
  Ledger& ledger = lane->ledger;
  const size_t open_loop_count = std::min(offsets.size(), requests.size());
  Calibrate(lane);

  Clock::time_point o0 = Clock::now();
  LACB_RETURN_NOT_OK(service->OpenDay(day));
  if (day > 0) {
    lane->turnover_s.push_back(lane->close_s +
                               SecondsBetween(o0, Clock::now()));
  }

  // Open-loop segment.
  ledger.record_batches.store(true, std::memory_order_relaxed);
  const Clock::time_point day_start = Clock::now() + kSpinLead;
  Clock::time_point last_sent = day_start;
  for (size_t i = 0; i < open_loop_count; ++i) {
    const Clock::time_point due =
        day_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offsets[i]));
    if (due - Clock::now() > kSpinLead) {
      std::this_thread::sleep_until(due - kSpinLead);
    }
    while (Clock::now() < due) {
    }
    last_sent = Clock::now();
    lane->late_ms.push_back(SecondsBetween(due, last_sent) * 1e3);
    ledger.due_ns[requests[i]->id] = Ns(due);
    ++lane->attempted;
    service->Submit(*requests[i]);  // a shed request is counted there
    if (lane->traced) lane->submit_s += SecondsBetween(last_sent, Clock::now());
  }
  LACB_RETURN_NOT_OK(service->WaitIdle());
  ledger.record_batches.store(false, std::memory_order_relaxed);
  lane->open_loop_s += SecondsBetween(day_start, last_sent);
  for (size_t i = 0; i < open_loop_count; ++i) {
    const int64_t id = requests[i]->id;
    lane->latency_ms.push_back(
        static_cast<double>(ledger.terminal_ns[id].load() -
                            ledger.due_ns[id]) *
        1e-6);
  }
  {
    std::lock_guard<std::mutex> lock(ledger.mu);
    lane->batch_ms.insert(lane->batch_ms.end(), ledger.batch_ms.begin(),
                          ledger.batch_ms.end());
    ledger.batch_ms.clear();
  }
  lane->open_loop_requests += open_loop_count;

  // Saturation segment: a closed window of in-flight requests, one going
  // in as one comes out; the day's rate runs to the drain.
  const Clock::time_point saturation_start = Clock::now();
  for (size_t i = open_loop_count; i < requests.size(); ++i) {
    while (lane->attempted -
               ledger.terminal_total.load(std::memory_order_acquire) >=
           kSaturationWindow) {
      std::this_thread::yield();
    }
    const Clock::time_point sent = Clock::now();
    ledger.due_ns[requests[i]->id] = Ns(sent);
    ++lane->attempted;
    service->Submit(*requests[i]);
    if (lane->traced) lane->submit_s += SecondsBetween(sent, Clock::now());
  }
  LACB_RETURN_NOT_OK(service->WaitIdle());
  lane->saturation_rps.push_back(
      static_cast<double>(requests.size() - open_loop_count) /
      SecondsBetween(saturation_start, Clock::now()));
  Calibrate(lane);

  if (last_day) return Status::OK();
  Clock::time_point c0 = Clock::now();
  LACB_ASSIGN_OR_RETURN(lacb::sim::DayOutcome outcome, service->CloseDay());
  lane->close_s = SecondsBetween(c0, Clock::now());
  lane->closed_day_utility += outcome.realized_utility;
  lane->closed_day_requests += requests.size();
  const auto& brokers = service->platform().brokers();
  for (size_t b = 0; b < brokers.size(); ++b) {
    if (outcome.per_broker_workload[b] > brokers[b].latent.true_capacity) {
      ++lane->overloaded_broker_days;
    }
  }
  lane->broker_days += brokers.size();
  return Status::OK();
}

// Stops the lane's service and checks its ledger and ServeStats.
void FinishLane(Lane* lane, Report* report) {
  lane->stats = lane->service->Stats();
  lane->service->Shutdown();
  for (const auto& count : lane->ledger.terminals) {
    if (count.load() != 1) lane->every_id_once = false;
  }
  const lacb::serve::ServeStats& s = lane->stats;
  report->Check(lane->attempted == s.submitted + s.shed,
                "every Submit is either accepted or shed");
  report->Check(lane->every_id_once,
                "every submitted id reaches exactly one terminal disposition");
  report->Check(s.submitted ==
                    s.assigned + s.unmatched + s.failed + s.dropped_appeals,
                "ServeStats conservation: submitted == assigned + unmatched "
                "+ failed + dropped_appeals");
  report->attempted += lane->attempted;
  report->failed += s.shed + s.failed + s.dropped_appeals;
}

}  // namespace

Status RunServe(const Args& args, Report* report) {
  LACB_ASSIGN_OR_RETURN(const lacb::sim::DatasetConfig config, ServeConfig());
  const lacb::policy::PolicyFactory factory = lacb::core::SuitePolicyFactory(
      config, lacb::core::PolicySuiteConfig{}, kLacbOpt);
  lacb::Rng traffic_rng(args.seed + 1);
  const auto traffic = lacb::sim::GenerateRequests(config, &traffic_rng);
  const size_t total = config.num_requests;  // ids are 0 .. total - 1
  const size_t days = config.num_days;

  std::vector<std::vector<const lacb::sim::Request*>> day_requests(days);
  std::vector<std::vector<double>> offsets(days);
  std::mt19937_64 gen(args.seed * 0x9E3779B97F4A7C15ull + 1);
  std::exponential_distribution<double> gap(kOpenLoopRps);
  for (size_t day = 0; day < days; ++day) {
    for (const auto& batch : traffic[day]) {
      for (const lacb::sim::Request& r : batch) {
        if (r.id < 0 || static_cast<size_t>(r.id) >= total) {
          return Status::Internal("request id outside the dataset's range");
        }
        day_requests[day].push_back(&r);
      }
    }
    double offset = 0.0;
    for (size_t i = 0; i < kOpenLoopPerDay; ++i) {
      offset += gap(gen);
      offsets[day].push_back(offset);
    }
  }

  if (!args.trace) {
    Lane lane(total, /*traced=*/false);
    LACB_RETURN_NOT_OK(StartLane(config, factory, kSetupRepeats, &lane));
    Clock::time_point horizon_start = Clock::now();
    for (size_t day = 0; day < days; ++day) {
      LACB_RETURN_NOT_OK(ServeDay(&lane, day, day_requests[day],
                                  offsets[day], day + 1 == days));
    }
    const double horizon_s = SecondsBetween(horizon_start, Clock::now());
    FinishLane(&lane, report);

    // End-to-end timings at the reference speed. The open loop's arrival
    // schedule is wall-clock pacing, not work, so the horizon keeps it as
    // paced and scales the rest; calibration time is left out.
    const double slowness = Slowness(Mean(lane.calibration_ms));
    report->E2e("setup_s",
                Median(lane.setup_s) /
                    Slowness(Mean(lane.setup_calibration_ms)),
                "s");
    report->E2e("horizon_s",
                lane.open_loop_s + (horizon_s - lane.open_loop_s -
                                    lane.calibration_s) /
                                       slowness,
                "s");
    report->E2e("latency_p50_ms",
                WindowedQuantile(lane.latency_ms, kLatencyWindow, 0.50) /
                    slowness,
                "ms");
    report->E2e("throughput_rps", Median(lane.saturation_rps) * slowness,
                "1/s");
    report->E2e("utility_per_request",
                lane.closed_day_utility /
                    static_cast<double>(lane.closed_day_requests),
                "utility");
    report->E2e("peak_rss_mb", PeakRssMb(), "MB");
    return Status::OK();
  }

  // Traced run: an untraced service and a traced one serve the same
  // traffic day by day, taking turns at going first, so host drift hits
  // both alike. The traced service's threads adopt the run-scoped
  // telemetry context at Start(); the generator drops back to the process
  // default context while it drives the untraced one.
  Lane plain(total, /*traced=*/false);
  {
    lacb::obs::ScopedContextAdoption default_context(nullptr, nullptr);
    LACB_RETURN_NOT_OK(StartLane(config, factory, 1, &plain));
  }
  lacb::obs::ScopedTelemetry telemetry;
  Lane traced(total, /*traced=*/true);
  LACB_RETURN_NOT_OK(StartLane(config, factory, 1, &traced));
  for (size_t day = 0; day < days; ++day) {
    for (size_t turn = 0; turn < 2; ++turn) {
      const bool last_day = day + 1 == days;
      if ((turn == 0) == (day % 2 == 1)) {
        LACB_RETURN_NOT_OK(ServeDay(&traced, day, day_requests[day],
                                    offsets[day], last_day));
      } else {
        lacb::obs::ScopedContextAdoption default_context(nullptr, nullptr);
        LACB_RETURN_NOT_OK(ServeDay(&plain, day, day_requests[day],
                                    offsets[day], last_day));
      }
    }
  }
  {
    lacb::obs::ScopedContextAdoption default_context(nullptr, nullptr);
    FinishLane(&plain, report);
  }
  FinishLane(&traced, report);
  std::vector<double> slowdown;  // per day, untraced rate / traced rate
  for (size_t day = 0; day < days; ++day) {
    slowdown.push_back(plain.saturation_rps[day] /
                       traced.saturation_rps[day]);
  }

  // Batch decision times, tails and generator lateness come from the
  // untraced service; see README.md on why the first two are not
  // end-to-end metrics.
  report->Layer("host.calibration_ms", Mean(plain.calibration_ms), "ms");
  report->Layer("turnover_s", Median(plain.turnover_s), "s");
  report->Layer("decision_p50_ms",
                WindowedQuantile(plain.batch_ms, kBatchWindow, 0.50), "ms");
  report->Layer("decision_p99_ms",
                WindowedQuantile(plain.batch_ms, kBatchWindow, 0.99), "ms");
  report->Layer("latency_p99_ms",
                WindowedQuantile(plain.latency_ms, kLatencyWindow, 0.99),
                "ms");
  report->Layer("loadgen.late_p99_ms", Quantile(plain.late_ms, 0.99), "ms");
  report->Layer("loadgen.late_max_ms", Quantile(plain.late_ms, 1.0), "ms");
  report->Layer("loadgen.offered_rps", kOpenLoopRps, "1/s");
  report->Layer("loadgen.achieved_rps",
                static_cast<double>(plain.open_loop_requests) /
                    plain.open_loop_s,
                "1/s");

  const lacb::serve::ServeStats& s = traced.stats;
  lacb::obs::MetricsSnapshot m = telemetry.registry().Snapshot();
  std::map<std::string, lacb::obs::SpanAggregate> spans =
      telemetry.tracer().AggregateByLabel();
  for (const char* span : {"capacity_estimate", "bandit_select",
                           "bandit_train", "bandit_update", "km_solve",
                           "value_refine", "cbs_prune",
                           "serve.utility_matrix"}) {
    LACB_ASSIGN_OR_RETURN(lacb::obs::SpanAggregate agg, Recorded(spans, span));
    report->Layer(std::string("span.") + span + "_s", agg.total_seconds, "s");
  }
  report->Layer("matching.iterations",
                static_cast<double>(s.solver.iterations), "count");
  report->Layer("matching.augmenting_paths",
                static_cast<double>(s.solver.augmenting_paths), "count");
  report->Layer("matching.dual_updates",
                static_cast<double>(s.solver.dual_updates), "count");
  report->Layer("matching.build_s", s.solver.phase_build_seconds, "s");
  report->Layer("matching.search_s", s.solver.phase_search_seconds, "s");
  report->Layer("matching.update_s", s.solver.phase_update_seconds, "s");
  report->Layer("sim.overload_rate",
                static_cast<double>(traced.overloaded_broker_days) /
                    static_cast<double>(traced.broker_days),
                "ratio");
  LACB_ASSIGN_OR_RETURN(uint64_t pruned,
                        Recorded(m.counters, "lacb.cbs_pruned_columns"));
  report->Layer("lacb.cbs_pruned_columns", static_cast<double>(pruned),
                "count");
  report->Layer("serve.submit_us",
                1e6 * traced.submit_s / static_cast<double>(traced.attempted),
                "us");
  report->Layer("serve.batches", static_cast<double>(s.batches), "count");
  report->Layer("serve.batch_size_mean",
                static_cast<double>(s.assigned + s.unmatched + s.failed) /
                    static_cast<double>(std::max<uint64_t>(1, s.batches)),
                "requests");
  report->Layer("serve.batch_close.size", static_cast<double>(s.size_closes),
                "count");
  report->Layer("serve.batch_close.deadline",
                static_cast<double>(s.deadline_closes), "count");
  report->Layer("serve.assign_s", s.assign_seconds, "s");
  for (const char* stage :
       {"queue_wait", "channel_wait", "solve", "commit", "disposition"}) {
    LACB_ASSIGN_OR_RETURN(
        lacb::obs::HistogramSnapshot h,
        Recorded(m.histograms, std::string("serve.stage.") + stage +
                                   "_seconds"));
    report->Layer(std::string("serve.stage.") + stage + "_p50_ms",
                  h.p50 * 1e3, "ms");
    report->Layer(std::string("serve.stage.") + stage + "_p99_ms",
                  h.p99 * 1e3, "ms");
  }
  report->Layer("obs.instrument_ns", InstrumentCostNs(), "ns");
  report->Layer("trace.overhead_pct", 100.0 * (Median(slowdown) - 1.0), "%");
  return Status::OK();
}

}  // namespace perfbench
