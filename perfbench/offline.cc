// offline_exact: Alg. 2 LACB with padded exact KM replayed over a whole
// simulated horizon through sim::Platform and the AssignmentPolicy
// day/batch protocol -- the loop core::RunPolicy runs, replicated here so
// each layer can be timed from outside. The matching layer does nearly all
// the work.
//
// The instance is the CityC preset scaled to 111 brokers, with the preset's
// own 21-day horizon and per-broker traffic (about one request per
// broker-day, one request per batch). The broker roster is the preset's;
// the workload seed draws the request traffic. Rosters differ so much
// between seeds that realized utility swings by a third, which would bury
// any regression.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "lacb/common/rng.h"
#include "lacb/core/engine.h"
#include "lacb/core/policy_suite.h"
#include "lacb/obs/context.h"
#include "lacb/sim/dataset.h"
#include "lacb/sim/platform.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using lacb::Result;
using lacb::Status;

// Suite order: Top-1, Top-3, RR, KM, CTop-1, CTop-3, AN, LACB, LACB-Opt.
constexpr size_t kLacb = 7;
constexpr size_t kLacbOpt = 8;

// Set-up is cheap next to a horizon; it is repeated so its median rests
// on enough samples.
constexpr size_t kSetupSamples = 101;
// Per-piece minima need repetitions of the horizon. Calibrated, two kept
// the timings' ratio to the calibration kernel within +-2%, as three did
// (see README.md).
constexpr size_t kMinHorizons = 2;
// Calibration samples per day, taken after the day's batches.
constexpr size_t kCalibrationsPerDay = 2;

Result<lacb::sim::DatasetConfig> OfflineConfig() {
  LACB_ASSIGN_OR_RETURN(lacb::sim::DatasetConfig preset,
                        lacb::sim::CityPreset('C'));
  return lacb::sim::ScaleDown(preset, 0.03);
}

struct Instance {
  lacb::sim::Platform platform;
  std::unique_ptr<lacb::policy::AssignmentPolicy> policy;
};

// Set-up: roster -> seeded traffic -> policy -> Initialize. `traffic_seed`
// 0 keeps the platform's own schedule (what core::RunPolicy replays).
Result<Instance> SetUp(const lacb::sim::DatasetConfig& config,
                       uint64_t traffic_seed, size_t policy_index) {
  LACB_ASSIGN_OR_RETURN(lacb::sim::Platform platform,
                        lacb::sim::Platform::Create(config));
  if (traffic_seed != 0) {
    lacb::Rng rng(traffic_seed);
    LACB_RETURN_NOT_OK(platform.SetRequestSchedule(
        lacb::sim::GenerateRequests(config, &rng)));
  }
  LACB_ASSIGN_OR_RETURN(
      std::unique_ptr<lacb::policy::AssignmentPolicy> policy,
      lacb::core::MakeSuitePolicy(config, lacb::core::PolicySuiteConfig{},
                                  policy_index));
  LACB_RETURN_NOT_OK(policy->Initialize(platform));
  return Instance{std::move(platform), std::move(policy)};
}

struct Horizon {
  double horizon_s = 0.0;
  // The horizon's timed pieces in order: per day, StartDay + BeginDay,
  // each batch, then EndDay on the platform and the policy. Calibration
  // and CPU migration fall between pieces.
  std::vector<double> piece_s;
  std::vector<double> calibration_ms;  // kCalibrationsPerDay per day
  std::vector<double> batch_ms;        // per-batch decision time
  std::vector<size_t> batch_requests;  // requests per batch
  std::vector<double> turnover_s;      // EndDay + next BeginDay
  double begin_day_s = 0.0;
  double end_day_s = 0.0;
  double batch_input_s = 0.0;
  double commit_s = 0.0;
  double utility = 0.0;
  size_t requests = 0;
  size_t overloaded_broker_days = 0;
  size_t broker_days = 0;
  lacb::matching::SolveStats solve;
};

// Set-up followed by the full horizon, replicating core::RunPolicy's
// protocol call for call.
Result<Horizon> RunHorizon(const lacb::sim::DatasetConfig& config,
                           uint64_t traffic_seed, size_t policy_index,
                           bool collect_solve_stats) {
  Horizon h;
  LACB_ASSIGN_OR_RETURN(Instance instance,
                        SetUp(config, traffic_seed, policy_index));
  lacb::sim::Platform& platform = instance.platform;
  lacb::policy::AssignmentPolicy* policy = instance.policy.get();
  Clock::time_point t1 = Clock::now();

  const size_t n = platform.num_brokers();
  double last_end_day_s = 0.0;
  for (size_t day = 0; day < platform.num_days(); ++day) {
    Clock::time_point s0 = Clock::now();
    LACB_RETURN_NOT_OK(platform.StartDay(day));
    Clock::time_point b0 = Clock::now();
    LACB_RETURN_NOT_OK(policy->BeginDay(platform, day));
    Clock::time_point b1 = Clock::now();
    double begin_s = SecondsBetween(b0, b1);
    h.piece_s.push_back(SecondsBetween(s0, b1));
    h.begin_day_s += begin_s;
    if (day > 0) h.turnover_s.push_back(last_end_day_s + begin_s);
    // Migrate between days' batch loops, not inside a turnover, whose
    // BeginDay would otherwise start on a cold core.
    RotateCpu();

    for (size_t batch = 0; batch < platform.NumBatchesToday(); ++batch) {
      Clock::time_point a = Clock::now();
      LACB_ASSIGN_OR_RETURN(std::vector<lacb::sim::Request> requests,
                            platform.BatchRequests(batch));
      LACB_ASSIGN_OR_RETURN(lacb::la::Matrix utility,
                            platform.BatchUtility(batch));
      Clock::time_point b = Clock::now();
      lacb::policy::BatchInput input;
      input.requests = &requests;
      input.utility = &utility;
      input.workloads = &platform.workloads_today();
      input.day = day;
      input.batch = batch;
      input.collect_solve_stats = collect_solve_stats;
      LACB_ASSIGN_OR_RETURN(std::vector<int64_t> assignment,
                            policy->AssignBatch(input));
      Clock::time_point c = Clock::now();
      LACB_RETURN_NOT_OK(platform.CommitAssignment(batch, assignment));
      Clock::time_point d = Clock::now();
      if (const lacb::matching::SolveStats* s = policy->last_solve_stats()) {
        h.solve.MergeFrom(*s);
      }
      h.batch_ms.push_back(SecondsBetween(a, d) * 1e3);
      h.piece_s.push_back(SecondsBetween(a, d));
      h.batch_requests.push_back(requests.size());
      h.requests += requests.size();
      h.batch_input_s += SecondsBetween(a, b);
      h.commit_s += SecondsBetween(c, d);
    }

    for (size_t k = 0; k < kCalibrationsPerDay; ++k) {
      h.calibration_ms.push_back(CalibrationMs());
    }
    Clock::time_point p0 = Clock::now();
    LACB_ASSIGN_OR_RETURN(lacb::sim::DayOutcome outcome, platform.EndDay());
    Clock::time_point e0 = Clock::now();
    LACB_RETURN_NOT_OK(policy->EndDay(outcome));
    Clock::time_point e1 = Clock::now();
    last_end_day_s = SecondsBetween(e0, e1);
    h.end_day_s += last_end_day_s;
    h.piece_s.push_back(SecondsBetween(p0, e1));

    h.utility += outcome.realized_utility;
    for (size_t b = 0; b < n; ++b) {
      if (outcome.per_broker_workload[b] >
          platform.brokers()[b].latent.true_capacity) {
        ++h.overloaded_broker_days;
      }
    }
    h.broker_days += n;
  }
  h.horizon_s = SecondsBetween(t1, Clock::now());
  return h;
}

// Thm. 2 / Cor. 1 on the measured instance, and the replicated loop
// against core::RunPolicy on the platform's own schedule (the only one
// RunPolicy can replay). `measured` is the utility the timed loop produced.
Status CheckUtilities(const lacb::sim::DatasetConfig& config,
                      uint64_t traffic_seed, double measured,
                      Report* report) {
  LACB_ASSIGN_OR_RETURN(Horizon opt,
                        RunHorizon(config, traffic_seed, kLacbOpt, false));
  report->Check(opt.utility == measured,
                "LACB-Opt utility " + std::to_string(opt.utility) +
                    " != LACB utility " + std::to_string(measured) +
                    " (Thm. 2: CBS must not change the assignment)");
  LACB_ASSIGN_OR_RETURN(Horizon replicated,
                        RunHorizon(config, 0, kLacbOpt, false));
  LACB_ASSIGN_OR_RETURN(
      std::unique_ptr<lacb::policy::AssignmentPolicy> policy,
      lacb::core::MakeSuitePolicy(config, lacb::core::PolicySuiteConfig{},
                                  kLacbOpt));
  LACB_ASSIGN_OR_RETURN(lacb::core::PolicyRunResult engine,
                        lacb::core::RunPolicy(config, policy.get()));
  report->Check(engine.total_utility == replicated.utility,
                "core::RunPolicy utility " +
                    std::to_string(engine.total_utility) +
                    " != replicated loop " +
                    std::to_string(replicated.utility));
  return Status::OK();
}

}  // namespace

Status RunOffline(const Args& args, Report* report) {
  LACB_ASSIGN_OR_RETURN(lacb::sim::DatasetConfig config, OfflineConfig());
  // Seed 0 would select the platform's own schedule in SetUp.
  const uint64_t traffic_seed = args.seed + 1;
  const size_t policy_index = kLacb;

  // Set-up samples, like the horizon's days, rotate over the CPUs: a run
  // that stayed on one CPU read the speed of that CPU alone. Each is
  // followed by a calibration sample on the same CPU.
  std::vector<double> setup, setup_calibration_ms;
  while (setup.size() < kSetupSamples) {
    RotateCpu();
    Clock::time_point t0 = Clock::now();
    LACB_ASSIGN_OR_RETURN(Instance instance,
                          SetUp(config, traffic_seed, policy_index));
    setup.push_back(SecondsBetween(t0, Clock::now()));
    setup_calibration_ms.push_back(CalibrationMs());
  }

  std::vector<Horizon> runs;
  std::vector<double> traced_over_untraced;
  Horizon traced;
  std::map<std::string, lacb::obs::SpanAggregate> spans;
  Clock::time_point start = Clock::now();
  while (runs.size() < kMinHorizons ||
         SecondsBetween(start, Clock::now()) < args.seconds) {
    LACB_ASSIGN_OR_RETURN(
        Horizon plain, RunHorizon(config, traffic_seed, policy_index, false));
    if (args.trace) {
      // Each untraced horizon is paired with a traced one in its own
      // telemetry context: the last traced horizon gives the per-layer
      // numbers, the pairs the tracing overhead.
      lacb::obs::ScopedTelemetry telemetry;
      LACB_ASSIGN_OR_RETURN(
          traced, RunHorizon(config, traffic_seed, policy_index, true));
      traced_over_untraced.push_back(traced.horizon_s / plain.horizon_s);
      spans = telemetry.tracer().AggregateByLabel();
    }
    runs.push_back(std::move(plain));
  }

  for (const Horizon& h : runs) {
    report->Check(h.utility == runs.front().utility,
                  "repeated horizons disagree on utility");
  }
  LACB_RETURN_NOT_OK(
      CheckUtilities(config, traffic_seed, runs.front().utility, report));

  const Horizon& first = runs.front();
  report->attempted = first.requests;
  report->failed = 0;  // the offline loop assigns or leaves unmatched

  // Every horizon of a run replays identical work (the checks above
  // confirm it bit for bit), and host interference only ever adds time.
  // So each timed piece -- a batch, a day's turnover, each calibration
  // slot -- is the fastest of its repetitions: a stall or a slow stretch of
  // the host hits some repetitions, and the minimum keeps the work's own
  // cost. The calibration statistic is built the same way (per-slot
  // minima, then their median), so it reads the host's speed in the same
  // state the timings keep.
  auto fastest = [&runs](auto field) {
    double best = field(runs.front());
    for (const Horizon& h : runs) best = std::min(best, field(h));
    return best;
  };
  std::vector<double> calibration_ms;
  for (size_t k = 0; k < first.calibration_ms.size(); ++k) {
    calibration_ms.push_back(
        fastest([k](const Horizon& h) { return h.calibration_ms[k]; }));
  }
  const double slowness = Slowness(Median(calibration_ms));
  double horizon_s = 0.0;  // at the reference speed
  for (size_t i = 0; i < first.piece_s.size(); ++i) {
    horizon_s += fastest([i](const Horizon& h) { return h.piece_s[i]; });
  }
  horizon_s /= slowness;
  std::vector<double> turnover, batch_ms, request_ms;
  for (size_t d = 0; d < first.turnover_s.size(); ++d) {
    turnover.push_back(
        fastest([d](const Horizon& h) { return h.turnover_s[d]; }));
  }
  for (size_t i = 0; i < first.batch_ms.size(); ++i) {
    batch_ms.push_back(
        fastest([i](const Horizon& h) { return h.batch_ms[i]; }));
    request_ms.insert(request_ms.end(), first.batch_requests[i],
                      batch_ms.back());
  }

  // End-to-end timings at the reference speed; per-layer ones as measured.
  report->E2e("setup_s",
              Median(setup) / Slowness(Median(setup_calibration_ms)), "s");
  report->E2e("horizon_s", horizon_s, "s");
  report->E2e("latency_p50_ms", Quantile(request_ms, 0.50) / slowness,
              "ms");
  report->E2e("throughput_rps",
              static_cast<double>(first.requests) / horizon_s, "1/s");
  report->E2e("utility_per_request",
              first.utility / static_cast<double>(first.requests), "utility");
  report->E2e("peak_rss_mb", PeakRssMb(), "MB");

  if (args.trace) {
    // The per-day and per-batch minima come from the untraced horizons.
    // Turnover is the mean over days, not the median: a day's EndDay cost
    // swings tenfold with how many brokers got work and with NeuralUCB's
    // training schedule, so the median day's cost moved with the seed (25%
    // IQR over ten seeds, against 17% for the mean).
    report->Layer("turnover_s",
                  std::accumulate(turnover.begin(), turnover.end(), 0.0) /
                      static_cast<double>(turnover.size()),
                  "s");
    report->Layer("host.calibration_ms", Median(calibration_ms), "ms");
    report->Layer("decision_p50_ms", Quantile(batch_ms, 0.50), "ms");
    report->Layer("decision_p99_ms", Quantile(batch_ms, 0.99), "ms");
    report->Layer("latency_p99_ms", Quantile(request_ms, 0.99), "ms");
    const double days = static_cast<double>(config.num_days);
    report->Layer("policy.begin_day_s", traced.begin_day_s / days, "s");
    report->Layer("policy.end_day_s", traced.end_day_s / days, "s");
    // LACB runs no candidate broker selection: no cbs_prune span here.
    for (const char* span : {"capacity_estimate", "bandit_select",
                             "bandit_train", "bandit_update", "km_solve",
                             "value_refine"}) {
      LACB_ASSIGN_OR_RETURN(lacb::obs::SpanAggregate agg,
                            Recorded(spans, span));
      report->Layer(std::string("span.") + span + "_s", agg.total_seconds,
                    "s");
    }
    report->Layer("matching.iterations",
                  static_cast<double>(traced.solve.iterations), "count");
    report->Layer("matching.augmenting_paths",
                  static_cast<double>(traced.solve.augmenting_paths), "count");
    report->Layer("matching.dual_updates",
                  static_cast<double>(traced.solve.dual_updates), "count");
    report->Layer("matching.build_s", traced.solve.phase_build_seconds, "s");
    report->Layer("matching.search_s", traced.solve.phase_search_seconds, "s");
    report->Layer("matching.update_s", traced.solve.phase_update_seconds, "s");
    report->Layer("sim.batch_input_s", traced.batch_input_s, "s");
    report->Layer("sim.commit_s", traced.commit_s, "s");
    report->Layer("sim.overload_rate",
                  static_cast<double>(traced.overloaded_broker_days) /
                      static_cast<double>(traced.broker_days),
                  "ratio");
    report->Layer("obs.instrument_ns", InstrumentCostNs(), "ns");
    report->Layer("trace.overhead_pct",
                  100.0 * (Median(traced_over_untraced) - 1.0), "%");
  }
  return Status::OK();
}

}  // namespace perfbench
