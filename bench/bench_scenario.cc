// Dynamic scenario engine: stress matrix over churn rate × burst shape ×
// two-sided tightness (docs/scenarios.md).
//
// Three sweeps, every point re-checking its conservation identity:
//
//  - Offline churn sweep: the LACB-Opt policy under rising stochastic
//    broker churn (paired join/leave Poisson rates over a reserved join
//    pool, plus a mid-day fail burst). Measures realized utility, churn
//    bookkeeping (applied events, churn-voided assignments), and the
//    offline ledger: submitted == assigned + unmatched + dropped_appeals.
//
//  - Two-sided sweep: budget tightness × backend (exact KM row-expansion
//    vs approx b-Suitor), appeal-free. Every batch's solution was already
//    re-checked by CheckTwoSidedFeasible inside the runner; the sweep
//    exports the violation count (gate: 0) and the value split between
//    primary and extra engagement edges.
//
//  - Served sweep: open-loop LoadMode::kScenario arrivals (diurnal curve +
//    one flash window at a rate multiple) against the serving layer with
//    and without churn. Measures shed rate, p99 batch latency, and the
//    serve ledger: submitted == assigned + unmatched + failed +
//    dropped_appeals.
//
// Results land in BENCH_scenario.json (schema below; validated by CI —
// conservation and two-sided feasibility are re-checked from the JSON).

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"

namespace lacb {
namespace {

// Small instance: the sweeps run 3 offline × 6 two-sided × 4 served
// points, so each run must stay in the hundreds of milliseconds.
sim::DatasetConfig BenchConfig() {
  sim::DatasetConfig config;
  config.name = "scenario-bench";
  config.num_brokers = 40;
  config.num_requests = 1800;
  config.num_days = 3;
  config.seed = 20260809;
  return config;
}

scenario::ScenarioSpec ChurnSpec(double rate) {
  scenario::ScenarioSpec spec;
  spec.seed = 7;
  spec.stochastic.join_rate = rate;
  spec.stochastic.leave_rate = rate;
  spec.stochastic.fail_rate = rate * 0.5;
  spec.stochastic.join_pool_fraction = rate > 0.0 ? 0.2 : 0.0;
  return spec;
}

obs::JsonValue LedgerJson(const scenario::ScenarioLedger& ledger) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("submitted", static_cast<uint64_t>(ledger.submitted));
  out.Set("assigned", static_cast<uint64_t>(ledger.assigned));
  out.Set("unmatched", static_cast<uint64_t>(ledger.unmatched));
  out.Set("dropped_appeals", static_cast<uint64_t>(ledger.dropped_appeals));
  out.Set("churn_rejected", static_cast<uint64_t>(ledger.churn_rejected));
  out.Set("extra_assigned", static_cast<uint64_t>(ledger.extra_assigned));
  out.Set("conservation_ok", ledger.ConservationHolds());
  return out;
}

Status Run() {
  bench::PrintHeader("scenario engine",
                     "churn x burst shape x two-sided tightness");
  const sim::DatasetConfig config = BenchConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  constexpr size_t kLacbOpt = 8;
  bool all_ok = true;

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("schema_version", static_cast<uint64_t>(1));
  root.Set("bench", "scenario");

  // --- Offline churn sweep ------------------------------------------------
  std::cout << "\n--- offline churn sweep (LACB-Opt) ---\n";
  obs::JsonValue churn_sweep = obs::JsonValue::Array();
  for (double rate : {0.0, 0.5, 1.5}) {
    scenario::ScenarioSpec spec = ChurnSpec(rate);
    LACB_ASSIGN_OR_RETURN(scenario::CompiledScenario scenario,
                          scenario::CompiledScenario::Compile(spec, config));
    LACB_ASSIGN_OR_RETURN(auto policy,
                          core::MakeSuitePolicy(config, suite, kLacbOpt));
    LACB_ASSIGN_OR_RETURN(
        scenario::ScenarioRunResult result,
        scenario::RunPolicyScenario(config, policy.get(), scenario));
    all_ok &= bench::ShapeCheck(
        "conservation holds at churn rate " + std::to_string(rate),
        result.ledger.ConservationHolds(),
        std::to_string(result.ledger.submitted) + " submitted");
    obs::JsonValue point = obs::JsonValue::Object();
    point.Set("churn_rate_per_day", rate);
    point.Set("utility", result.run.total_utility);
    point.Set("churn_events_applied",
              static_cast<uint64_t>(result.churn_applied));
    point.Set("p99_batch_seconds", result.run.p99_batch_latency);
    point.Set("ledger", LedgerJson(result.ledger));
    churn_sweep.Append(std::move(point));
    std::cout << "  rate " << rate << "/day: utility "
              << result.run.total_utility << ", events "
              << result.churn_applied << ", churn-voided "
              << result.ledger.churn_rejected << "\n";
  }
  root.Set("offline_churn_sweep", std::move(churn_sweep));

  // --- Two-sided tightness sweep ------------------------------------------
  std::cout << "\n--- two-sided tightness sweep ---\n";
  sim::DatasetConfig ts_config = config;
  ts_config.appeal_rate = 0.0;  // engagement edges cannot re-queue
  obs::JsonValue ts_sweep = obs::JsonValue::Array();
  for (double tightness : {0.0, 0.4, 0.8}) {
    for (scenario::TwoSidedBackend backend :
         {scenario::TwoSidedBackend::kExact,
          scenario::TwoSidedBackend::kApprox}) {
      scenario::ScenarioSpec spec;
      spec.seed = 11;
      spec.two_sided.enabled = true;
      spec.two_sided.tightness = tightness;
      spec.two_sided.max_limit = 3;
      spec.two_sided.backend = backend;
      LACB_ASSIGN_OR_RETURN(
          scenario::CompiledScenario scenario,
          scenario::CompiledScenario::Compile(spec, ts_config));
      LACB_ASSIGN_OR_RETURN(auto policy,
                            core::MakeSuitePolicy(ts_config, suite, kLacbOpt));
      LACB_ASSIGN_OR_RETURN(
          scenario::ScenarioRunResult result,
          scenario::RunPolicyScenario(ts_config, policy.get(), scenario));
      const char* name =
          backend == scenario::TwoSidedBackend::kExact ? "exact" : "approx";
      all_ok &= bench::ShapeCheck(
          std::string("two-sided feasible (") + name + ", tightness " +
              std::to_string(tightness) + ")",
          result.feasibility_violations == 0 &&
              result.ledger.ConservationHolds(),
          std::to_string(result.feasibility_violations) + " violations");
      obs::JsonValue point = obs::JsonValue::Object();
      point.Set("tightness", tightness);
      point.Set("backend", name);
      point.Set("utility", result.run.total_utility);
      point.Set("feasibility_violations",
                static_cast<uint64_t>(result.feasibility_violations));
      point.Set("ledger", LedgerJson(result.ledger));
      ts_sweep.Append(std::move(point));
      std::cout << "  tightness " << tightness << " (" << name
                << "): utility " << result.run.total_utility << ", extras "
                << result.ledger.extra_assigned << "\n";
    }
  }
  root.Set("two_sided_sweep", std::move(ts_sweep));

  // --- Served sweep: churn x burst shape ----------------------------------
  std::cout << "\n--- served sweep (LoadMode::kScenario) ---\n";
  obs::JsonValue served_sweep = obs::JsonValue::Array();
  for (double rate : {0.0, 1.0}) {
    for (double burst : {1.0, 6.0}) {
      scenario::ScenarioSpec spec = ChurnSpec(rate);
      spec.arrivals.diurnal = {0.6, 1.4, 1.0};
      if (burst > 1.0) {
        scenario::FlashWindow window;
        window.start_fraction = 0.4;
        window.length_fraction = 0.2;
        window.multiplier = burst;
        spec.arrivals.flash.push_back(window);
      }
      LACB_ASSIGN_OR_RETURN(
          scenario::CompiledScenario compiled,
          scenario::CompiledScenario::Compile(spec, config));

      serve::ServedRunOptions options;
      options.mode = serve::LoadMode::kScenario;
      options.poisson_rate = 40000.0;  // ~15 ms of arrivals per day
      options.serve.scenario = std::make_shared<scenario::CompiledScenario>(
          std::move(compiled));
      options.serve.num_workers = 2;
      options.serve.queue_capacity = 64;  // tight: the 6x burst must shed
      options.serve.max_batch_size = 32;
      options.serve.max_batch_delay = std::chrono::milliseconds(2);

      obs::ScopedTelemetry telemetry;
      LACB_ASSIGN_OR_RETURN(
          auto service,
          serve::AssignmentService::Create(
              config, core::SuitePolicyFactory(config, suite, kLacbOpt),
              options.serve));
      LACB_RETURN_NOT_OK(service->Start());
      std::vector<double> latencies;
      for (size_t day = 0; day < config.num_days; ++day) {
        LACB_RETURN_NOT_OK(service->OpenDay(day));
        LACB_RETURN_NOT_OK(serve::PumpDay(service.get(), day, options));
        LACB_RETURN_NOT_OK(service->CloseDay().status());
      }
      serve::ServeStats stats = service->Stats();
      service->Shutdown();
      obs::MetricsSnapshot metrics = telemetry.registry().Snapshot();
      double p99 = 0.0;
      if (auto it = metrics.histograms.find("serve.batch_assign_seconds");
          it != metrics.histograms.end()) {
        p99 = it->second.p99;
      }

      bool conserved = stats.assigned + stats.unmatched + stats.failed +
                           stats.dropped_appeals ==
                       stats.submitted;
      all_ok &= bench::ShapeCheck(
          "serve conservation (churn " + std::to_string(rate) + ", burst " +
              std::to_string(burst) + "x)",
          conserved, std::to_string(stats.submitted) + " submitted");
      double offered = static_cast<double>(stats.submitted + stats.shed);
      double shed_rate =
          offered > 0.0 ? static_cast<double>(stats.shed) / offered : 0.0;
      obs::JsonValue point = obs::JsonValue::Object();
      point.Set("churn_rate_per_day", rate);
      point.Set("burst_multiplier", burst);
      point.Set("submitted", stats.submitted);
      point.Set("shed", stats.shed);
      point.Set("shed_rate", shed_rate);
      point.Set("assigned", stats.assigned);
      point.Set("unmatched", stats.unmatched);
      point.Set("failed", stats.failed);
      point.Set("dropped_appeals", stats.dropped_appeals);
      point.Set("churn_events", stats.churn_events);
      point.Set("churn_rejected", stats.churn_rejected);
      point.Set("p99_batch_seconds", p99);
      point.Set("conservation_ok", conserved);
      served_sweep.Append(std::move(point));
      std::cout << "  churn " << rate << ", burst " << burst
                << "x: shed rate " << shed_rate << ", p99 " << p99
                << "s, churn events " << stats.churn_events << "\n";
    }
  }
  root.Set("served_sweep", std::move(served_sweep));

  LACB_RETURN_NOT_OK(obs::WriteJsonFile(root, "BENCH_scenario.json"));
  std::cout << "\ntelemetry written to BENCH_scenario.json\n";
  if (!all_ok) return Status::Internal("scenario bench shape checks failed");
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
