#include "lacb/scenario/runner.h"

#include <algorithm>
#include <cmath>

#include "lacb/common/stopwatch.h"
#include "lacb/matching/assignment.h"
#include "lacb/matching/two_sided.h"
#include "lacb/policy/lacb_policy.h"

namespace lacb::scenario {
namespace {

// Applies one churn event; returns true when it changed anything.
Result<bool> ApplyEvent(const CompiledScenario& scenario, const ChurnEvent& ev,
                        sim::Platform* platform,
                        policy::AssignmentPolicy* policy) {
  switch (ev.kind) {
    case ChurnKind::kJoin: {
      if (platform->BrokerActive(ev.broker)) return false;
      LACB_RETURN_NOT_OK(platform->SetBrokerActive(ev.broker, true));
      // Cold-start prior: a capacity-estimating policy starts the joiner
      // at the scenario's prior instead of an estimate trained on zero
      // observations. From tomorrow's BeginDay the bandit re-estimates.
      if (auto* lacb = dynamic_cast<policy::LacbPolicy*>(policy);
          lacb != nullptr && !lacb->capacities().empty()) {
        LACB_RETURN_NOT_OK(
            lacb->OverrideCapacity(ev.broker, scenario.ColdCapacity(ev)));
      }
      return true;
    }
    case ChurnKind::kLeave: {
      if (!platform->BrokerActive(ev.broker)) return false;
      LACB_RETURN_NOT_OK(platform->SetBrokerActive(ev.broker, false));
      return true;
    }
    case ChurnKind::kFail: {
      if (!platform->BrokerActive(ev.broker)) return false;
      LACB_RETURN_NOT_OK(platform->SetBrokerActive(ev.broker, false));
      LACB_RETURN_NOT_OK(platform->RetireBrokerDay(ev.broker));
      return true;
    }
  }
  return Status::InvalidArgument("unknown churn kind");
}

// Primary engagement of a two-sided request: its maximum-utility kept
// edge (ties broken by broker index, matching the truncation order).
int64_t PrimaryEdge(const la::Matrix& utility, size_t row,
                    const std::vector<int64_t>& brokers) {
  int64_t best = matching::kUnmatched;
  double best_u = 0.0;
  for (int64_t b : brokers) {
    double u = utility(row, static_cast<size_t>(b));
    if (best == matching::kUnmatched || u > best_u) {
      best = b;
      best_u = u;
    }
  }
  return best;
}

}  // namespace

Result<ScenarioRunResult> RunPolicyScenario(const sim::DatasetConfig& config,
                                            policy::AssignmentPolicy* policy,
                                            const CompiledScenario& scenario) {
  if (policy == nullptr) {
    return Status::InvalidArgument("RunPolicyScenario requires a policy");
  }
  const ScenarioSpec& spec = scenario.spec();
  if (spec.two_sided.enabled && config.appeal_rate > 0.0) {
    return Status::InvalidArgument(
        "two-sided mode requires appeal_rate == 0 (engagement edges cannot "
        "re-queue)");
  }

  LACB_ASSIGN_OR_RETURN(sim::Platform platform, sim::Platform::Create(config));
  if (scenario.HasArrivalShaping()) {
    LACB_ASSIGN_OR_RETURN(auto shaped,
                          scenario.ShapeSchedule(platform.all_requests()));
    LACB_RETURN_NOT_OK(platform.SetRequestSchedule(std::move(shaped)));
  }
  for (size_t b : scenario.initially_inactive()) {
    LACB_RETURN_NOT_OK(platform.SetBrokerActive(b, false));
  }

  ScenarioRunResult result;
  core::PolicyRunResult& run = result.run;
  run.policy = policy->name();
  run.dataset = config.name;
  const size_t n = platform.num_brokers();
  run.broker_utility.assign(n, 0.0);
  run.broker_requests.assign(n, 0.0);
  run.broker_peak_workload.assign(n, 0.0);
  run.broker_mean_workload.assign(n, 0.0);

  LACB_RETURN_NOT_OK(policy->Initialize(platform));

  const std::vector<ChurnEvent>& timeline = scenario.timeline();
  size_t cursor = 0;
  std::vector<sim::Request> pending_appeals;
  std::vector<double> latencies;

  const size_t days = platform.num_days();
  for (size_t day = 0; day < days; ++day) {
    LACB_RETURN_NOT_OK(platform.StartDayExternal(day));
    double policy_time = 0.0;
    {
      Stopwatch sw;
      LACB_RETURN_NOT_OK(policy->BeginDay(platform, day));
      policy_time += sw.ElapsedSeconds();
    }

    // Today's batches mirror StartDay: the schedule, with the previous
    // day's overflow appeals appended to the first batch.
    std::vector<std::vector<sim::Request>> batches =
        platform.all_requests()[day];
    // Fresh arrivals only: a carried appeal was already counted submitted
    // on its original day (re-counting it would break the ledger).
    for (const auto& batch : batches) result.ledger.submitted += batch.size();
    if (!pending_appeals.empty() && !batches.empty()) {
      batches.front().insert(batches.front().end(), pending_appeals.begin(),
                             pending_appeals.end());
      pending_appeals.clear();
    }

    for (size_t batch = 0; batch < batches.size(); ++batch) {
      // Churn due at this boundary (batch_offset 0 = day open).
      while (cursor < timeline.size() && timeline[cursor].day == day &&
             timeline[cursor].batch_offset <= batch) {
        LACB_ASSIGN_OR_RETURN(
            bool applied,
            ApplyEvent(scenario, timeline[cursor], &platform, policy));
        if (applied) ++result.churn_applied;
        ++cursor;
      }

      const std::vector<sim::Request>& requests = batches[batch];
      la::Matrix utility = platform.utility_model().UtilityMatrix(requests);

      std::vector<int64_t> assignment;
      std::vector<sim::Request> commit_requests;
      const std::vector<sim::Request>* commit_reqs = &requests;
      if (spec.two_sided.enabled) {
        LACB_ASSIGN_OR_RETURN(matching::TwoSidedParams params,
                              scenario.DeriveTwoSided(requests, n));
        // Inactive brokers are ineligible outright: price them out.
        if (platform.AnyBrokerInactive()) {
          for (size_t b = 0; b < n; ++b) {
            if (!platform.BrokerActive(b)) params.costs[b] = 1e30;
          }
        }
        Stopwatch sw;
        matching::TwoSidedAssignment solved;
        if (spec.two_sided.backend == TwoSidedBackend::kExact) {
          LACB_ASSIGN_OR_RETURN(solved, matching::TwoSidedExact(utility, params));
        } else {
          LACB_ASSIGN_OR_RETURN(solved,
                                matching::TwoSidedApprox(utility, params));
        }
        double elapsed = sw.ElapsedSeconds();
        policy_time += elapsed;
        latencies.push_back(elapsed);
        if (!matching::CheckTwoSidedFeasible(utility, params, solved).ok()) {
          ++result.feasibility_violations;
        }
        // Primary edge per request plus duplicated rows for the extra
        // engagements, all committed in one batch.
        assignment.assign(requests.size(), matching::kUnmatched);
        commit_requests = requests;
        for (size_t i = 0; i < requests.size(); ++i) {
          const std::vector<int64_t>& edges = solved.brokers_of_row[i];
          if (edges.empty()) continue;
          int64_t primary = PrimaryEdge(utility, i, edges);
          assignment[i] = primary;
          for (int64_t b : edges) {
            if (b == primary) continue;
            commit_requests.push_back(requests[i]);
            assignment.push_back(b);
            ++result.ledger.extra_assigned;
          }
        }
        commit_reqs = &commit_requests;
      } else {
        policy::BatchInput input;
        input.requests = &requests;
        input.utility = &utility;
        input.day = day;
        input.batch = batch;
        // Steering: the policy sees inactive brokers as saturated. The
        // no-churn path passes the platform's vector through untouched
        // (the bit-identity gate).
        std::vector<double> steered;
        if (platform.AnyBrokerInactive()) {
          steered = platform.workloads_today();
          for (size_t b = 0; b < n; ++b) {
            if (!platform.BrokerActive(b)) steered[b] = kInactiveWorkload;
          }
          input.workloads = &steered;
        } else {
          input.workloads = &platform.workloads_today();
        }
        Stopwatch sw;
        LACB_ASSIGN_OR_RETURN(assignment, policy->AssignBatch(input));
        double elapsed = sw.ElapsedSeconds();
        policy_time += elapsed;
        latencies.push_back(elapsed);
        if (assignment.size() != requests.size()) {
          return Status::Internal("policy returned a misshapen assignment");
        }
        // Sanitize: an edge into a churned-away broker becomes
        // terminally unmatched.
        if (platform.AnyBrokerInactive()) {
          for (int64_t& a : assignment) {
            if (a != matching::kUnmatched &&
                !platform.BrokerActive(static_cast<size_t>(a))) {
              a = matching::kUnmatched;
              ++result.ledger.churn_rejected;
            }
          }
        }
      }

      for (size_t i = 0; i < requests.size(); ++i) {
        if (assignment[i] == matching::kUnmatched) ++result.ledger.unmatched;
      }
      LACB_ASSIGN_OR_RETURN(
          sim::ExternalCommitOutcome outcome,
          platform.CommitExternalBatch(*commit_reqs, assignment));
      result.ledger.assigned +=
          outcome.accepted.size() -
          (commit_reqs->size() - requests.size());  // primaries only
      for (const sim::Request& r : outcome.appealed) {
        if (batch + 1 < batches.size()) {
          batches[batch + 1].push_back(r);
        } else {
          pending_appeals.push_back(r);
        }
      }
    }

    // Day-tail churn (batch_offset at/after the last batch) still lands
    // inside the open day so fail-retirement can void today's edges.
    while (cursor < timeline.size() && timeline[cursor].day == day) {
      LACB_ASSIGN_OR_RETURN(
          bool applied,
          ApplyEvent(scenario, timeline[cursor], &platform, policy));
      if (applied) ++result.churn_applied;
      ++cursor;
    }

    LACB_ASSIGN_OR_RETURN(sim::DayOutcome outcome, platform.EndDay());
    {
      Stopwatch sw;
      LACB_RETURN_NOT_OK(policy->EndDay(outcome));
      policy_time += sw.ElapsedSeconds();
    }

    run.daily_utility.push_back(outcome.realized_utility);
    run.daily_policy_seconds.push_back(policy_time);
    run.total_utility += outcome.realized_utility;
    run.policy_seconds += policy_time;
    run.total_appeals += outcome.appeals;
    for (size_t b = 0; b < n; ++b) {
      run.broker_utility[b] += outcome.per_broker_utility[b];
      double w = outcome.per_broker_workload[b];
      run.broker_requests[b] += w;
      run.broker_peak_workload[b] = std::max(run.broker_peak_workload[b], w);
      double knee = platform.brokers()[b].latent.true_capacity;
      if (w > knee) {
        ++run.overloaded_broker_days;
        run.overload_excess += w - knee;
      }
    }
  }
  double d = static_cast<double>(std::max<size_t>(1, days));
  for (size_t b = 0; b < n; ++b) {
    run.broker_mean_workload[b] = run.broker_requests[b] / d;
  }
  result.ledger.dropped_appeals = pending_appeals.size();

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    size_t idx = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(latencies.size())));
    run.p99_batch_latency = latencies[std::min(idx, latencies.size() - 1)];
  }
  return result;
}

}  // namespace lacb::scenario
