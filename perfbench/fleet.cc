// fleet_failover: the multi-process fleet -- a cluster::Coordinator with two
// lacb_shard processes serving LACB-Opt over 400 CityA-scaled brokers, with
// shard checkpoints and WAL shipping at their defaults (durable and
// closed-loop, beside serve_open's in-memory open loop). One shard is
// SIGKILLed mid-day; the survivor adopts its range from the shipped WAL
// and checkpoint and the pump carries on. A pass is one fleet over the
// whole horizon; passes repeat until the run's time is up. Every pass does
// identical work (the checks confirm its utility bit for bit), and the run
// reports the median pass.
//
// The coordinator generates each range's roster and traffic from the
// dataset seed, which stays the preset's (see offline.cc); the workload
// seed picks the kill: which shard dies, and at which batch of day 3.
//
// The coordinator exposes no per-request completion, so a batch's decision
// time is taken from the fleet ledger: batch j counts as disposed once the
// fleet's terminal count reaches the cumulative number of requests
// submitted through batch j (a FIFO-equivalent completion time), observed
// after every pump call and by polling while each day drains. A request's
// latency is its batch's decision time. The pump is closed-loop (each
// SubmitScheduledBatch blocks while a range has 4 tickets in flight), so
// these times are about that window over the fleet's throughput: on this
// workload they follow throughput_rps rather than measure a latency of
// their own.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lacb/cluster/coordinator.h"
#include "lacb/obs/context.h"
#include "lacb/sim/dataset.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using lacb::Result;
using lacb::Status;

constexpr size_t kShards = 2;
constexpr size_t kDays = 5;
// 20 requests per broker-day against the CityA preset's 0.9, for 31
// scheduled batches a day; below the preset's capacity knee of ~32 a day
// (see README.md).
constexpr size_t kRequestsPerDay = 8000;
// Requests per scheduled batch (split across the ranges by the ring). With
// batches of 64, per-ticket round trips and per-checkpoint file operations
// made up about 60% of the pump, and those swing severalfold with the
// shared disk's state; at 256 the solves dominate.
constexpr size_t kBatchSize = 256;
// The kill lands on day 3 of 0..4: three healthy days and one on the
// survivor alone keep the per-day medians on the healthy fleet.
constexpr size_t kKillDay = 3;
// Set-up is timed once per pass, and repeated to this many if the run
// made fewer passes.
constexpr size_t kSetupSamples = 5;
// Passes per run at the least (the traced run: pairs of passes).
constexpr size_t kMinPasses = 2;
constexpr auto kDrainTimeout = std::chrono::seconds(60);

Result<lacb::sim::DatasetConfig> FleetConfig() {
  LACB_ASSIGN_OR_RETURN(lacb::sim::DatasetConfig preset,
                        lacb::sim::CityPreset('A'));
  lacb::sim::DatasetConfig config = lacb::sim::ScaleDown(preset, 400.0 / 5515);
  config.num_days = kDays;
  config.num_requests = kRequestsPerDay * kDays;
  config.imbalance = static_cast<double>(kBatchSize) /
                     static_cast<double>(config.num_brokers);
  return config;
}

uint64_t Terminal(const lacb::cluster::FleetStats& s) {
  return s.assigned + s.unmatched + s.failed + s.dropped_appeals + s.shed;
}

double UnixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

struct FleetPass {
  std::vector<double> calibration_ms;  // every CPU, before the fleet starts
  double setup_s = 0.0;
  double horizon_s = 0.0;
  double pump_s = 0.0;  // first submission to drain, summed over days
  // Per-day quantiles of batch and request completion times; the run
  // reports their median over days.
  std::vector<double> decision_p50_ms, decision_p99_ms;
  std::vector<double> latency_p50_ms, latency_p99_ms;
  std::vector<double> submit_ms;  // every pump call
  std::vector<double> turnover_s;
  std::vector<double> open_day_s;
  std::vector<double> close_day_s;
  double recovery_s = 0.0;
  double utility = 0.0;
  lacb::cluster::FleetStats stats;
};

struct InFlight {
  uint64_t cumulative_submitted = 0;
  uint64_t requests = 0;
  Clock::time_point start;
};

struct Completions {
  std::vector<double> batch_ms;
  std::vector<double> request_ms;
};

// Pops every in-flight batch the ledger has caught up with, stamping it
// with `now`.
void Retire(std::deque<InFlight>* inflight, uint64_t terminal,
            Clock::time_point now, Completions* done) {
  while (!inflight->empty() &&
         inflight->front().cumulative_submitted <= terminal) {
    const double ms = SecondsBetween(inflight->front().start, now) * 1e3;
    done->batch_ms.push_back(ms);
    done->request_ms.insert(done->request_ms.end(),
                            inflight->front().requests, ms);
    inflight->pop_front();
  }
}

lacb::cluster::CoordinatorOptions FleetOptions(
    const Args& args, const lacb::sim::DatasetConfig& config,
    const std::string& tag) {
  lacb::cluster::CoordinatorOptions opts;
  opts.shard_binary = args.shard_binary;
  opts.workdir = args.workdir + "/" + tag;
  opts.base_config = config;
  opts.num_shards = kShards;
  return opts;
}

// Shard spawn up to every range serving.
Result<std::unique_ptr<lacb::cluster::Coordinator>> StartFleet(
    const lacb::cluster::CoordinatorOptions& opts) {
  std::filesystem::remove_all(opts.workdir);
  LACB_ASSIGN_OR_RETURN(std::unique_ptr<lacb::cluster::Coordinator> coord,
                        lacb::cluster::Coordinator::Create(opts));
  LACB_RETURN_NOT_OK(coord->Start());
  return coord;
}

// One fleet over the whole horizon, with one kill.
Result<FleetPass> RunPass(const Args& args, const std::string& tag) {
  LACB_ASSIGN_OR_RETURN(lacb::sim::DatasetConfig config, FleetConfig());
  const lacb::cluster::CoordinatorOptions opts =
      FleetOptions(args, config, tag);
  FleetPass run;
  run.calibration_ms = CalibrateEachCpu();
  Clock::time_point t0 = Clock::now();
  LACB_ASSIGN_OR_RETURN(std::unique_ptr<lacb::cluster::Coordinator> coord,
                        StartFleet(opts));
  run.setup_s = SecondsBetween(t0, Clock::now());

  std::deque<InFlight> inflight;
  double kill_unix = 0.0;
  double close_s = 0.0;
  const size_t batches = coord->BatchesPerDay();
  // The kill lands in the middle half of the day.
  const uint64_t kill_shard = args.seed % kShards;
  const size_t kill_batch =
      batches / 4 + (args.seed / kShards) % std::max<size_t>(1, batches / 2);
  Clock::time_point horizon_start = Clock::now();
  for (size_t day = 0; day < coord->NumDays(); ++day) {
    Clock::time_point o0 = Clock::now();
    LACB_RETURN_NOT_OK(coord->OpenDay(day));
    const double open_s = SecondsBetween(o0, Clock::now());
    run.open_day_s.push_back(open_s);
    if (day > 0) run.turnover_s.push_back(close_s + open_s);
    Completions done;
    const Clock::time_point pump_start = Clock::now();
    for (size_t j = 0; j < batches; ++j) {
      Clock::time_point a = Clock::now();
      uint64_t before = coord->Stats().submitted;
      LACB_RETURN_NOT_OK(coord->SubmitScheduledBatch(j));
      Clock::time_point b = Clock::now();
      run.submit_ms.push_back(SecondsBetween(a, b) * 1e3);
      lacb::cluster::FleetStats s = coord->Stats();
      if (s.submitted > before) {
        inflight.push_back({s.submitted, s.submitted - before, a});
      }
      Retire(&inflight, Terminal(s), b, &done);
      if (day == kKillDay && j == kill_batch) {
        kill_unix = UnixNow();
        LACB_RETURN_NOT_OK(coord->KillShard(kill_shard, /*sigstop=*/false));
      }
    }
    // Drain before the timed close, so turnover excludes in-flight work.
    const Clock::time_point drain_deadline = Clock::now() + kDrainTimeout;
    while (!inflight.empty()) {
      if (Clock::now() > drain_deadline) {
        return Status::Internal("fleet ledger did not drain before close");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      Retire(&inflight, Terminal(coord->Stats()), Clock::now(), &done);
    }
    run.pump_s += SecondsBetween(pump_start, Clock::now());
    run.decision_p50_ms.push_back(Quantile(done.batch_ms, 0.50));
    run.decision_p99_ms.push_back(Quantile(done.batch_ms, 0.99));
    run.latency_p50_ms.push_back(Quantile(done.request_ms, 0.50));
    run.latency_p99_ms.push_back(Quantile(done.request_ms, 0.99));
    Clock::time_point c0 = Clock::now();
    LACB_RETURN_NOT_OK(coord->CloseDay());
    close_s = SecondsBetween(c0, Clock::now());
    run.close_day_s.push_back(close_s);
  }
  run.horizon_s = SecondsBetween(horizon_start, Clock::now());
  run.recovery_s = coord->last_failover_unix_seconds() - kill_unix;
  for (double u : coord->FleetDailyUtility()) run.utility += u;
  LACB_RETURN_NOT_OK(coord->Shutdown());
  run.stats = coord->Stats();
  coord.reset();
  std::filesystem::remove_all(opts.workdir);
  return run;
}

void CheckPass(const FleetPass& run, Report* report) {
  const lacb::cluster::FleetStats& s = run.stats;
  report->Check(s.submitted == Terminal(s),
                "FleetStats conservation: submitted == assigned + unmatched "
                "+ failed + dropped_appeals + shed");
  report->Check(s.pending == 0, "nothing left pending after shutdown");
  report->Check(s.duplicate_terminals == 0, "no duplicate terminals");
  report->Check(s.reconcile_mismatches == 0, "no reconcile mismatches");
  report->Check(s.failovers == 1 && s.shard_deaths == 1,
                "the one kill produced exactly one failover (failovers=" +
                    std::to_string(s.failovers) + ")");
  report->Check(run.recovery_s > 0.0, "failover stamped after the kill");
  report->attempted += s.submitted;
  report->failed += s.shed + s.failed + s.dropped_appeals + s.pending;
}

// Median over passes of one per-pass figure.
template <typename Field>
double OverPasses(const std::vector<FleetPass>& passes, Field field) {
  std::vector<double> values;
  for (const FleetPass& p : passes) values.push_back(field(p));
  return Median(values);
}

// Fastest over passes of one per-pass figure.
template <typename Field>
double FastestPass(const std::vector<FleetPass>& passes, Field field) {
  double best = field(passes.front());
  for (const FleetPass& p : passes) best = std::min(best, field(p));
  return best;
}

}  // namespace

Status RunFleet(const Args& args, Report* report) {
  if (args.shard_binary.empty() || args.workdir.empty()) {
    return Status::InvalidArgument(
        "fleet_failover needs --shard-binary and --workdir");
  }
  // Untraced passes; in the traced run each is followed by a traced pass
  // whose coordinator registers its cluster.* instruments in a run-scoped
  // context. Pairs give the tracing overhead; the last traced pass gives
  // the per-layer numbers.
  std::vector<FleetPass> passes, traced_passes;
  lacb::obs::MetricsSnapshot traced_metrics;
  Clock::time_point start = Clock::now();
  while (passes.size() < kMinPasses ||
         SecondsBetween(start, Clock::now()) < args.seconds) {
    LACB_ASSIGN_OR_RETURN(FleetPass plain, RunPass(args, "fleet"));
    CheckPass(plain, report);
    passes.push_back(std::move(plain));
    if (args.trace) {
      lacb::obs::ScopedTelemetry telemetry;
      LACB_ASSIGN_OR_RETURN(FleetPass traced, RunPass(args, "traced"));
      CheckPass(traced, report);
      traced_metrics = telemetry.registry().Snapshot();
      traced_passes.push_back(std::move(traced));
    }
  }

  for (const FleetPass& p : passes) {
    report->Check(p.utility == passes.front().utility,
                  "repeated passes disagree on utility");
  }

  if (!args.trace) {
    std::vector<double> setup;
    for (const FleetPass& p : passes) setup.push_back(p.setup_s);
    LACB_ASSIGN_OR_RETURN(lacb::sim::DatasetConfig config, FleetConfig());
    while (setup.size() < kSetupSamples) {
      const lacb::cluster::CoordinatorOptions opts =
          FleetOptions(args, config, "setup");
      Clock::time_point t0 = Clock::now();
      LACB_ASSIGN_OR_RETURN(std::unique_ptr<lacb::cluster::Coordinator> coord,
                            StartFleet(opts));
      setup.push_back(SecondsBetween(t0, Clock::now()));
      LACB_RETURN_NOT_OK(coord->Shutdown());
      coord.reset();
      std::filesystem::remove_all(opts.workdir);
    }
    // The median pass. The fleet's time is round trips between processes,
    // file operations and solves, which the calibration kernel does not
    // track (dividing by it widened the spread; see README.md), so the
    // fleet reports wall time as measured.
    const lacb::cluster::FleetStats& s = passes.front().stats;
    report->E2e("setup_s", Median(setup), "s");
    report->E2e("horizon_s",
                OverPasses(passes, [](const FleetPass& p) {
                  return p.horizon_s;
                }),
                "s");
    report->E2e("latency_p50_ms",
                OverPasses(passes, [](const FleetPass& p) {
                  return Median(p.latency_p50_ms);
                }),
                "ms");
    // Requests per second of pumping, first submission to drain; the day
    // turnovers between are the per-layer turnover_s.
    report->E2e("throughput_rps",
                static_cast<double>(s.submitted) /
                    OverPasses(passes,
                               [](const FleetPass& p) { return p.pump_s; }),
                "1/s");
    report->E2e("utility_per_request",
                passes.front().utility / static_cast<double>(s.submitted),
                "utility");
    report->E2e("peak_rss_mb", PeakRssMb(), "MB");
    return Status::OK();
  }

  // Batch decision times and the tails come from the untraced passes; see
  // README.md on why they are not end-to-end metrics.
  std::vector<double> calibration_ms;
  for (const FleetPass& p : passes) {
    calibration_ms.insert(calibration_ms.end(), p.calibration_ms.begin(),
                          p.calibration_ms.end());
  }
  report->Layer("host.calibration_ms", Mean(calibration_ms), "ms");
  report->Layer("decision_p50_ms",
                OverPasses(passes, [](const FleetPass& p) {
                  return Median(p.decision_p50_ms);
                }),
                "ms");
  std::vector<double> turnover;  // per day, fastest over passes
  for (size_t d = 0; d < passes.front().turnover_s.size(); ++d) {
    turnover.push_back(FastestPass(
        passes, [d](const FleetPass& p) { return p.turnover_s[d]; }));
  }
  report->Layer("turnover_s", Median(turnover), "s");
  report->Layer("decision_p99_ms",
                OverPasses(passes, [](const FleetPass& p) {
                  return Median(p.decision_p99_ms);
                }),
                "ms");
  report->Layer("latency_p99_ms",
                OverPasses(passes, [](const FleetPass& p) {
                  return Median(p.latency_p99_ms);
                }),
                "ms");
  std::vector<double> slowdown;  // per pair, traced / untraced pump time
  for (size_t i = 0; i < passes.size(); ++i) {
    slowdown.push_back(traced_passes[i].horizon_s / passes[i].horizon_s);
  }
  const FleetPass& run = traced_passes.back();
  const lacb::cluster::FleetStats& s = run.stats;
  report->Layer("cluster.submit_ms_p50", Quantile(run.submit_ms, 0.50), "ms");
  report->Layer("cluster.submit_ms_p99", Quantile(run.submit_ms, 0.99), "ms");
  report->Layer("cluster.open_day_s", Median(run.open_day_s), "s");
  report->Layer("cluster.close_day_s", Median(run.close_day_s), "s");
  report->Layer("cluster.wal_records_shipped",
                static_cast<double>(s.wal_records_shipped), "count");
  LACB_ASSIGN_OR_RETURN(
      uint64_t wal_bytes,
      Recorded(traced_metrics.counters, "cluster.wal_bytes_shipped"));
  report->Layer("cluster.wal_bytes_shipped", static_cast<double>(wal_bytes),
                "bytes");
  report->Layer("cluster.checkpoints_shipped",
                static_cast<double>(s.checkpoints_shipped), "count");
  report->Layer("cluster.redriven_requests",
                static_cast<double>(s.redriven_requests), "count");
  report->Layer("cluster.heartbeats", static_cast<double>(s.heartbeats),
                "count");
  report->Layer("cluster.recovery_s",
                OverPasses(passes, [](const FleetPass& p) {
                  return p.recovery_s;
                }),
                "s");
  report->Layer("obs.instrument_ns", InstrumentCostNs(), "ns");
  report->Layer("trace.overhead_pct", 100.0 * (Median(slowdown) - 1.0), "%");
  return Status::OK();
}

}  // namespace perfbench
