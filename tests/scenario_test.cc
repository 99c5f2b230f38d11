// Dynamic scenario engine (docs/scenarios.md): spec round-trip and
// validation, the empty-scenario bit-identity gates (offline and served),
// churn bookkeeping (leaves keep conservation, fails void the day, cold
// joins re-estimate), two-sided feasibility against the brute-force
// oracle, and the flash-crowd edge-case fixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lacb/core/engine.h"
#include "lacb/core/policy_suite.h"
#include "lacb/matching/two_sided.h"
#include "lacb/obs/obs.h"
#include "lacb/persist/bytes.h"
#include "lacb/policy/capacity_stage.h"
#include "lacb/policy/flow_policy.h"
#include "lacb/scenario/engine.h"
#include "lacb/scenario/runner.h"
#include "lacb/scenario/spec.h"
#include "lacb/serve/serve.h"

namespace lacb {
namespace {

sim::DatasetConfig TinyConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "scenario";
  cfg.num_brokers = 30;
  cfg.num_requests = 360;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;
  cfg.seed = 321;
  return cfg;
}

scenario::CompiledScenario Compiled(const scenario::ScenarioSpec& spec,
                                    const sim::DatasetConfig& cfg) {
  auto compiled = scenario::CompiledScenario::Compile(spec, cfg);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(*compiled);
}

// --- Spec round-trip and validation --------------------------------------

TEST(ScenarioSpecTest, JsonRoundTripPreservesEveryField) {
  scenario::ScenarioSpec spec;
  spec.seed = 42;
  scenario::ChurnEvent join;
  join.day = 1;
  join.batch_offset = 3;
  join.broker = 7;
  join.kind = scenario::ChurnKind::kJoin;
  join.cold_capacity = 12.5;
  spec.churn.push_back(join);
  scenario::ChurnEvent fail;
  fail.day = 2;
  fail.broker = 4;
  fail.kind = scenario::ChurnKind::kFail;
  spec.churn.push_back(fail);
  spec.stochastic.join_rate = 0.5;
  spec.stochastic.leave_rate = 0.25;
  spec.stochastic.fail_rate = 0.125;
  spec.stochastic.join_pool_fraction = 0.3;
  spec.arrivals.day_of_week = {1.0, 1.1, 1.2, 1.3, 1.2, 0.7, 0.5};
  spec.arrivals.diurnal = {0.5, 1.5, 1.0};
  scenario::FlashWindow fw;
  fw.start_fraction = 0.25;
  fw.length_fraction = 0.125;
  fw.multiplier = 8.0;
  fw.period = 7;
  fw.phase = 3;
  spec.arrivals.flash.push_back(fw);
  spec.arrivals.pareto_shape = 1.5;
  spec.two_sided.enabled = true;
  spec.two_sided.tightness = 0.5;
  spec.two_sided.max_limit = 3;
  spec.two_sided.backend = scenario::TwoSidedBackend::kApprox;

  auto parsed = scenario::ScenarioSpec::Parse(spec.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 42u);
  ASSERT_EQ(parsed->churn.size(), 2u);
  EXPECT_EQ(parsed->churn[0].day, 1u);
  EXPECT_EQ(parsed->churn[0].batch_offset, 3u);
  EXPECT_EQ(parsed->churn[0].broker, 7u);
  EXPECT_EQ(parsed->churn[0].kind, scenario::ChurnKind::kJoin);
  EXPECT_DOUBLE_EQ(parsed->churn[0].cold_capacity, 12.5);
  EXPECT_EQ(parsed->churn[1].kind, scenario::ChurnKind::kFail);
  EXPECT_DOUBLE_EQ(parsed->stochastic.join_rate, 0.5);
  EXPECT_DOUBLE_EQ(parsed->stochastic.join_pool_fraction, 0.3);
  EXPECT_EQ(parsed->arrivals.day_of_week.size(), 7u);
  EXPECT_EQ(parsed->arrivals.diurnal.size(), 3u);
  ASSERT_EQ(parsed->arrivals.flash.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->arrivals.flash[0].multiplier, 8.0);
  EXPECT_EQ(parsed->arrivals.flash[0].period, 7u);
  EXPECT_EQ(parsed->arrivals.flash[0].phase, 3u);
  EXPECT_DOUBLE_EQ(parsed->arrivals.pareto_shape, 1.5);
  EXPECT_TRUE(parsed->two_sided.enabled);
  EXPECT_DOUBLE_EQ(parsed->two_sided.tightness, 0.5);
  EXPECT_EQ(parsed->two_sided.max_limit, 3);
  EXPECT_EQ(parsed->two_sided.backend, scenario::TwoSidedBackend::kApprox);
  // Re-serialization is stable.
  EXPECT_EQ(parsed->Serialize(), spec.Serialize());
}

TEST(ScenarioSpecTest, ValidateRejectsMalformedSpecs) {
  {
    scenario::ScenarioSpec spec;
    spec.stochastic.join_rate = 1.0;  // joins need a join pool
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    spec.arrivals.day_of_week = {1.0, 1.0};  // must be 7 entries
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    scenario::FlashWindow fw;
    fw.length_fraction = 0.0;  // zero-length window: rejected, not ignored
    spec.arrivals.flash.push_back(fw);
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    scenario::FlashWindow fw;
    fw.start_fraction = 1.0;  // the window must start inside the day
    fw.length_fraction = 0.1;
    spec.arrivals.flash.push_back(fw);
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    scenario::FlashWindow fw;
    fw.start_fraction = 0.995;  // would carry into the next day
    fw.length_fraction = 0.5;
    spec.arrivals.flash.push_back(fw);
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    scenario::FlashWindow fw;
    // NaN compares false both ways; it must not slip through as a window
    // that never fires.
    fw.start_fraction = std::numeric_limits<double>::quiet_NaN();
    fw.length_fraction = 0.1;
    spec.arrivals.flash.push_back(fw);
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    spec.arrivals.pareto_shape = 0.9;  // infinite mean
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    spec.two_sided.enabled = true;
    spec.two_sided.tightness = 1.0;  // must be < 1
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    scenario::ScenarioSpec spec;
    scenario::ChurnEvent ev;
    ev.kind = scenario::ChurnKind::kLeave;
    ev.cold_capacity = 3.0;  // priors only make sense on joins
    spec.churn.push_back(ev);
    EXPECT_FALSE(spec.Validate().ok());
  }
}

// Integer fields arrive as JSON doubles; a negative, fractional or
// out-of-range value must be rejected by name, not cast (an unchecked cast
// of -1 or 1e30 to size_t is undefined, and in practice yields an event
// that never fires or a wrong broker).
TEST(ScenarioSpecTest, ParseRejectsNonIntegralOrOutOfRangeCounts) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"churn":[{"day":-1,"kind":"join"}]})", "'day'"},
      {R"({"churn":[{"day":1,"broker":1e30,"kind":"leave"}]})", "'broker'"},
      {R"({"seed":-5})", "'seed'"},
      {R"({"churn":[{"day":1.5,"kind":"join"}]})", "'day'"},
      {R"({"two_sided":{"max_limit":2.5}})", "'max_limit'"},
  };
  for (const auto& [json, field] : cases) {
    auto parsed = scenario::ScenarioSpec::Parse(json);
    ASSERT_FALSE(parsed.ok()) << json;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << json;
    EXPECT_NE(parsed.status().message().find(field), std::string::npos)
        << json << " -> " << parsed.status().ToString();
  }
  // In-range integral values still parse.
  auto ok = scenario::ScenarioSpec::Parse(
      R"({"seed":7,"churn":[{"day":2,"broker":3,"kind":"join"}]})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->seed, 7u);
  EXPECT_EQ(ok->churn[0].day, 2u);
  EXPECT_EQ(ok->churn[0].broker, 3u);
}

// JSON numbers are doubles: a seed round-trips only up to 2^53, so larger
// ones are refused on both sides instead of coming back as another seed.
TEST(ScenarioSpecTest, SeedRoundTripsUpTo2To53AndIsRefusedAbove) {
  const uint64_t max_seed = uint64_t{1} << 53;
  scenario::ScenarioSpec spec;
  spec.seed = max_seed;
  ASSERT_TRUE(spec.Validate().ok());
  auto back = scenario::ScenarioSpec::Parse(spec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seed, max_seed);

  spec.seed = max_seed + 1;
  Status invalid = spec.Validate();
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(invalid.message().find("'seed'"), std::string::npos)
      << invalid.ToString();
  // 2^53+1 reads as the double 2^53; the parser flags the lost bit.
  for (const char* json : {R"({"seed":9007199254740993})",
                           R"({"seed":9007199254740994})",
                           R"({"seed":18446744073709551615})",
                           R"({"seed":99999999999999999999999})"}) {
    auto parsed = scenario::ScenarioSpec::Parse(json);
    ASSERT_FALSE(parsed.ok()) << json;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << json;
    EXPECT_NE(parsed.status().message().find("'seed'"), std::string::npos)
        << json << " -> " << parsed.status().ToString();
  }
}

TEST(ScenarioSpecTest, DefaultSpecIsEmptyAndValid) {
  scenario::ScenarioSpec spec;
  EXPECT_TRUE(spec.Empty());
  EXPECT_TRUE(spec.Validate().ok());
}

// --- Bit-identity gates ---------------------------------------------------

// An empty scenario must leave the offline engine untouched: the external
// protocol draws the identical RNG stream, so every double matches.
TEST(ScenarioRunnerTest, EmptyScenarioBitIdenticalToRunPolicy) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.3;  // appeals exercise the re-queue mirror too
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  for (size_t index : {1u, 5u, 8u}) {
    auto offline_policy = core::MakeSuitePolicy(cfg, suite, index);
    ASSERT_TRUE(offline_policy.ok());
    auto offline = core::RunPolicy(cfg, offline_policy->get());
    ASSERT_TRUE(offline.ok());

    auto scenario_policy = core::MakeSuitePolicy(cfg, suite, index);
    ASSERT_TRUE(scenario_policy.ok());
    auto run = scenario::RunPolicyScenario(
        cfg, scenario_policy->get(),
        Compiled(scenario::ScenarioSpec(), cfg));
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    EXPECT_DOUBLE_EQ(offline->total_utility, run->run.total_utility)
        << "suite index " << index;
    ASSERT_EQ(offline->daily_utility.size(), run->run.daily_utility.size());
    for (size_t d = 0; d < offline->daily_utility.size(); ++d) {
      EXPECT_DOUBLE_EQ(offline->daily_utility[d], run->run.daily_utility[d])
          << "suite index " << index << " day " << d;
    }
    EXPECT_EQ(offline->broker_requests, run->run.broker_requests);
    EXPECT_EQ(offline->broker_utility, run->run.broker_utility);
    EXPECT_EQ(offline->total_appeals, run->run.total_appeals);
    EXPECT_TRUE(run->ledger.ConservationHolds());
    EXPECT_EQ(run->churn_applied, 0u);
  }
}

// Attaching a compiled *empty* scenario to the service must not perturb
// the served path either: single-worker lockstep stays bit-identical to
// the offline engine.
TEST(ScenarioServeTest, EmptyScenarioKeepsLockstepBitIdentity) {
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  const size_t index = 1;  // Top-3: RNG-consuming tie-breaks

  auto offline_policy = core::MakeSuitePolicy(cfg, suite, index);
  ASSERT_TRUE(offline_policy.ok());
  auto offline = core::RunPolicy(cfg, offline_policy->get());
  ASSERT_TRUE(offline.ok());

  serve::ServedRunOptions opts;
  opts.mode = serve::LoadMode::kLockstepReplay;
  opts.serve.num_workers = 1;
  opts.serve.max_batch_size = 1u << 20;
  opts.serve.max_batch_delay = std::chrono::seconds(300);
  opts.serve.queue_capacity = 4096;
  opts.serve.scenario = std::make_shared<scenario::CompiledScenario>(
      Compiled(scenario::ScenarioSpec(), cfg));
  auto served = serve::RunPolicyServed(
      cfg, core::SuitePolicyFactory(cfg, suite, index), opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  EXPECT_DOUBLE_EQ(offline->total_utility, served->total_utility);
  EXPECT_EQ(offline->broker_requests, served->broker_requests);
  EXPECT_EQ(offline->broker_utility, served->broker_utility);
  EXPECT_EQ(offline->total_appeals, served->total_appeals);
}

// --- Churn bookkeeping ----------------------------------------------------

// Finds a broker the baseline run actually assigns work to, so churning
// it away is guaranteed to change something.
size_t BusiestBroker(const sim::DatasetConfig& cfg) {
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  auto policy = core::MakeSuitePolicy(cfg, suite, 1);
  auto run = core::RunPolicy(cfg, policy->get());
  const std::vector<double>& reqs = run->broker_requests;
  return static_cast<size_t>(
      std::max_element(reqs.begin(), reqs.end()) - reqs.begin());
}

TEST(ScenarioChurnTest, LeaverWithInFlightAssignmentsKeepsConservation) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.3;  // in-flight appeals ride across the leave
  size_t victim = BusiestBroker(cfg);

  scenario::ScenarioSpec spec;
  scenario::ChurnEvent leave;
  leave.day = 1;
  leave.batch_offset = 2;  // mid-day: edges committed before it stand
  leave.broker = victim;
  leave.kind = scenario::ChurnKind::kLeave;
  spec.churn.push_back(leave);

  core::PolicySuiteConfig suite;
  suite.seed = 55;
  auto policy = core::MakeSuitePolicy(cfg, suite, 1);
  ASSERT_TRUE(policy.ok());
  auto run =
      scenario::RunPolicyScenario(cfg, policy->get(), Compiled(spec, cfg));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->churn_applied, 1u);
  EXPECT_TRUE(run->ledger.ConservationHolds())
      << run->ledger.submitted << " != " << run->ledger.assigned << " + "
      << run->ledger.unmatched << " + " << run->ledger.dropped_appeals;
  // The residuals retired cleanly: the leaver takes no work after the
  // event (days 1-tail and 2 assign it nothing), but the edges committed
  // before the leave kept their value.
  EXPECT_GT(run->run.broker_requests[victim], 0.0);
  EXPECT_GT(run->run.broker_utility[victim], 0.0);
}

TEST(ScenarioChurnTest, FailVoidsTheBrokersDayButNotConservation) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_days = 1;
  cfg.num_requests = 120;
  size_t victim = BusiestBroker(cfg);

  scenario::ScenarioSpec spec;
  scenario::ChurnEvent fail;
  fail.day = 0;
  fail.batch_offset = 1u << 20;  // day tail: after every batch committed
  fail.broker = victim;
  fail.kind = scenario::ChurnKind::kFail;
  spec.churn.push_back(fail);

  core::PolicySuiteConfig suite;
  suite.seed = 55;
  auto policy = core::MakeSuitePolicy(cfg, suite, 1);
  ASSERT_TRUE(policy.ok());
  auto run =
      scenario::RunPolicyScenario(cfg, policy->get(), Compiled(spec, cfg));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run->churn_applied, 1u);
  // Value destroyed, requests still accounted for: the failed broker ends
  // the day with zero utility and zero workload, yet every submitted
  // request stays on the ledger.
  EXPECT_DOUBLE_EQ(run->run.broker_utility[victim], 0.0);
  EXPECT_DOUBLE_EQ(run->run.broker_requests[victim], 0.0);
  EXPECT_TRUE(run->ledger.ConservationHolds());

  // The same run without the failure gives the victim strictly positive
  // utility — the fail really destroyed value.
  auto baseline_policy = core::MakeSuitePolicy(cfg, suite, 1);
  auto baseline = scenario::RunPolicyScenario(
      cfg, baseline_policy->get(), Compiled(scenario::ScenarioSpec(), cfg));
  ASSERT_TRUE(baseline.ok());
  EXPECT_GT(baseline->run.broker_utility[victim], 0.0);
  EXPECT_GT(baseline->run.total_utility, run->run.total_utility);
}

// Every policy that takes a joiner's cold-start prior through its capacity
// stage: LACB-Opt and AN from the suite, and the Flow extension.
Result<std::unique_ptr<policy::AssignmentPolicy>> MakeCapacityStagePolicy(
    const std::string& name, const sim::DatasetConfig& cfg) {
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  if (name == "Flow") {
    policy::FlowPolicyConfig flow;
    flow.estimator.bandit = core::DefaultBanditConfig(cfg, suite.seed + 7);
    LACB_ASSIGN_OR_RETURN(std::unique_ptr<policy::FlowPolicy> p,
                          policy::FlowPolicy::Create(flow));
    return std::unique_ptr<policy::AssignmentPolicy>(std::move(p));
  }
  // Suite order: AN is index 6, LACB-Opt index 8.
  return core::MakeSuitePolicy(cfg, suite, name == "AN" ? 6 : 8);
}

class ScenarioColdJoinTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioColdJoinTest, ColdJoinerTakesWorkAndReEstimatesCapacity) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.num_days = 4;
  cfg.num_requests = 480;
  // The busiest broker of the baseline run: once it joins, the policy
  // certainly wants to route work its way.
  size_t joiner = BusiestBroker(cfg);

  // A scripted joiner is dormant from day 0; it comes online on day 1
  // with a deliberately tiny prior, and the bandit must walk the estimate
  // back up from it over the following days.
  constexpr double kTinyPrior = 1.0;
  scenario::ScenarioSpec spec;
  scenario::ChurnEvent join;
  join.day = 1;
  join.batch_offset = 0;
  join.broker = joiner;
  join.kind = scenario::ChurnKind::kJoin;
  join.cold_capacity = kTinyPrior;
  spec.churn.push_back(join);

  auto policy = MakeCapacityStagePolicy(GetParam(), cfg);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();

  auto run =
      scenario::RunPolicyScenario(cfg, policy->get(), Compiled(spec, cfg));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The compiled scenario holds the scripted joiner dormant from day 0.
  EXPECT_EQ(run->churn_applied, 1u);
  EXPECT_TRUE(run->ledger.ConservationHolds());
  // The joiner came online and was given work after its join day.
  EXPECT_GT(run->run.broker_requests[joiner], 0.0);
  // Convergence: by the final BeginDay the bandit has replaced the cold
  // prior with its own estimate, which moved up toward the broker's true
  // capacity (the prior was far below any real knee).
  const policy::CapacityStage* stage = (*policy)->capacity_stage();
  ASSERT_NE(stage, nullptr);
  const std::vector<double>& capacities = stage->capacities();
  ASSERT_EQ(capacities.size(), cfg.num_brokers);
  EXPECT_GT(capacities[joiner], kTinyPrior);
}

INSTANTIATE_TEST_SUITE_P(CapacityStagePolicies, ScenarioColdJoinTest,
                         ::testing::Values("LacbOpt", "AN", "Flow"),
                         [](const auto& info) { return info.param; });

TEST(ScenarioPlatformTest, ActivityMaskSurvivesSaveLoad) {
  sim::DatasetConfig cfg = TinyConfig();
  auto platform = sim::Platform::Create(cfg);
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE(platform->SetBrokerActive(3, false).ok());
  ASSERT_TRUE(platform->SetBrokerActive(5, false).ok());
  ASSERT_TRUE(platform->SetBrokerActive(5, true).ok());

  persist::ByteWriter w;
  ASSERT_TRUE(platform->SaveState(&w).ok());

  auto restored = sim::Platform::Create(cfg);
  ASSERT_TRUE(restored.ok());
  persist::ByteReader r(w.bytes());
  ASSERT_TRUE(restored->LoadState(&r).ok());
  EXPECT_FALSE(restored->BrokerActive(3));
  EXPECT_TRUE(restored->BrokerActive(5));
  EXPECT_TRUE(restored->AnyBrokerInactive());
}

// --- Served churn ---------------------------------------------------------

TEST(ScenarioServeTest, ServedChurnKeepsTheServeLedgerBalanced) {
  obs::ScopedTelemetry telemetry;
  sim::DatasetConfig cfg = TinyConfig();
  size_t victim = BusiestBroker(cfg);

  // Three distinct brokers: a scripted joiner is dormant from day 0, so
  // churn kinds land on separate targets to make every event effective.
  scenario::ScenarioSpec spec;
  scenario::ChurnEvent leave;
  leave.day = 0;
  leave.batch_offset = 2;
  leave.broker = victim;
  leave.kind = scenario::ChurnKind::kLeave;
  spec.churn.push_back(leave);
  scenario::ChurnEvent join;
  join.day = 1;
  join.batch_offset = 0;
  join.broker = (victim + 1) % cfg.num_brokers;
  join.kind = scenario::ChurnKind::kJoin;
  join.cold_capacity = 8.0;
  spec.churn.push_back(join);
  scenario::ChurnEvent fail;
  fail.day = 2;
  fail.batch_offset = 3;
  fail.broker = (victim + 2) % cfg.num_brokers;
  fail.kind = scenario::ChurnKind::kFail;
  spec.churn.push_back(fail);

  core::PolicySuiteConfig suite;
  suite.seed = 55;
  serve::ServeOptions opts;
  opts.num_workers = 2;
  opts.max_batch_size = 16;
  opts.max_batch_delay = std::chrono::milliseconds(1);
  opts.queue_capacity = 4096;
  opts.scenario = std::make_shared<scenario::CompiledScenario>(
      Compiled(spec, cfg));

  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->Start().ok());
  size_t pumped = 0;
  for (size_t day = 0; day < cfg.num_days; ++day) {
    ASSERT_TRUE((*service)->OpenDay(day).ok());
    for (const auto& batch : (*service)->platform().all_requests()[day]) {
      for (const sim::Request& r : batch) {
        if ((*service)->Submit(r)) ++pumped;
      }
    }
    auto outcome = (*service)->CloseDay();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  serve::ServeStats stats = (*service)->Stats();
  (*service)->Shutdown();

  EXPECT_EQ(stats.churn_events, 3u);
  EXPECT_EQ(stats.submitted, pumped);
  EXPECT_EQ(stats.assigned + stats.unmatched + stats.failed +
                stats.dropped_appeals,
            stats.submitted)
      << "assigned " << stats.assigned << " unmatched " << stats.unmatched
      << " failed " << stats.failed << " dropped " << stats.dropped_appeals;
}

TEST(ScenarioServeTest, ApplyChurnRequiresAnOpenDay) {
  sim::DatasetConfig cfg = TinyConfig();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), serve::ServeOptions());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());

  scenario::ChurnEvent leave;
  leave.broker = 2;
  leave.kind = scenario::ChurnKind::kLeave;
  EXPECT_FALSE((*service)->ApplyChurn(leave).ok());  // no open day

  ASSERT_TRUE((*service)->OpenDay(0).ok());
  EXPECT_TRUE((*service)->ApplyChurn(leave).ok());
  scenario::ChurnEvent bogus;
  bogus.broker = cfg.num_brokers + 7;
  EXPECT_FALSE((*service)->ApplyChurn(bogus).ok());  // unknown broker
  EXPECT_EQ((*service)->Stats().churn_events, 1u);
  ASSERT_TRUE((*service)->CloseDay().ok());
  (*service)->Shutdown();
}

TEST(ScenarioServeTest, TwoSidedModeIsRejectedByTheServePath) {
  sim::DatasetConfig cfg = TinyConfig();
  scenario::ScenarioSpec spec;
  spec.two_sided.enabled = true;
  core::PolicySuiteConfig suite;
  serve::ServeOptions opts;
  opts.scenario = std::make_shared<scenario::CompiledScenario>(
      Compiled(spec, cfg));
  auto service = serve::AssignmentService::Create(
      cfg, core::SuitePolicyFactory(cfg, suite, 1), opts);
  EXPECT_FALSE(service.ok());
}

// --- Two-sided matching vs the brute-force oracle -------------------------

matching::TwoSidedParams RandomParams(Rng* rng, size_t rows, size_t cols) {
  matching::TwoSidedParams params;
  for (size_t c = 0; c < cols; ++c) {
    params.costs.push_back(0.25 + rng->Uniform() * 2.0);
  }
  for (size_t r = 0; r < rows; ++r) {
    params.limits.push_back(1 + static_cast<int64_t>(rng->UniformInt(0, 2)));
    params.budgets.push_back(0.5 + rng->Uniform() * 3.0);
  }
  return params;
}

TEST(TwoSidedMatchingTest, BackendsAreFeasibleAndBoundedByTheOracle) {
  Rng rng(2026);
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 1 + rng.UniformInt(0, 3);
    size_t cols = 2 + rng.UniformInt(0, 5);  // ≤ 8: oracle stays exhaustive
    la::Matrix weights(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        weights(r, c) = rng.Uniform();
      }
    }
    matching::TwoSidedParams params = RandomParams(&rng, rows, cols);

    auto oracle = matching::BruteForceTwoSided(weights, params);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    auto exact = matching::TwoSidedExact(weights, params);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_TRUE(
        matching::CheckTwoSidedFeasible(weights, params, *exact).ok())
        << "trial " << trial;
    EXPECT_LE(exact->total_weight, oracle->total_weight + 1e-9)
        << "trial " << trial;

    auto approx = matching::TwoSidedApprox(weights, params, 2);
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    EXPECT_TRUE(
        matching::CheckTwoSidedFeasible(weights, params, *approx).ok())
        << "trial " << trial;
    EXPECT_LE(approx->total_weight, oracle->total_weight + 1e-9)
        << "trial " << trial;
  }
}

TEST(TwoSidedMatchingTest, SlackBudgetsMakeTheExactBackendOptimal) {
  // With budgets that always cover the full limit, the knapsack coupling
  // is vacuous: the relaxation is tight and exact == oracle.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    size_t rows = 1 + rng.UniformInt(0, 2);
    size_t cols = 2 + rng.UniformInt(0, 4);
    la::Matrix weights(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        weights(r, c) = rng.Uniform();
      }
    }
    matching::TwoSidedParams params;
    params.costs.assign(cols, 1.0);
    for (size_t r = 0; r < rows; ++r) {
      params.limits.push_back(1 + static_cast<int64_t>(rng.UniformInt(0, 2)));
      params.budgets.push_back(1e9);  // never binds
    }
    auto oracle = matching::BruteForceTwoSided(weights, params);
    ASSERT_TRUE(oracle.ok());
    auto exact = matching::TwoSidedExact(weights, params);
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(exact->total_weight, oracle->total_weight, 1e-9)
        << "trial " << trial;
  }
}

TEST(ScenarioRunnerTest, TwoSidedRunIsFeasibleAndRejectsAppeals) {
  sim::DatasetConfig cfg = TinyConfig();
  cfg.appeal_rate = 0.3;
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  scenario::ScenarioSpec spec;
  spec.two_sided.enabled = true;
  spec.two_sided.tightness = 0.4;
  spec.two_sided.max_limit = 2;

  // Appeals + two-sided is a contract violation.
  auto policy = core::MakeSuitePolicy(cfg, suite, 1);
  ASSERT_TRUE(policy.ok());
  auto bad =
      scenario::RunPolicyScenario(cfg, policy->get(), Compiled(spec, cfg));
  EXPECT_FALSE(bad.ok());

  cfg.appeal_rate = 0.0;
  auto run =
      scenario::RunPolicyScenario(cfg, policy->get(), Compiled(spec, cfg));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->feasibility_violations, 0u);
  EXPECT_TRUE(run->ledger.ConservationHolds());
  EXPECT_GT(run->run.total_utility, 0.0);
}

}  // namespace
}  // namespace lacb
