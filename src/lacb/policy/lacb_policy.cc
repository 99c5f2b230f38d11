#include "lacb/policy/lacb_policy.h"

#include <algorithm>
#include <utility>

#include "lacb/matching/approx/scoring.h"
#include "lacb/matching/assignment.h"
#include "lacb/matching/selection.h"
#include "lacb/obs/obs.h"
#include "lacb/policy/capacity_stage.h"

namespace lacb::policy {

Result<std::unique_ptr<LacbPolicy>> LacbPolicy::Create(
    const LacbPolicyConfig& config) {
  if (config.capacity_hit_threshold < 0.0 ||
      config.capacity_hit_threshold > 1.0) {
    return Status::InvalidArgument("delta must be in [0,1]");
  }
  LACB_ASSIGN_OR_RETURN(
      CapacityValueFunction vf,
      CapacityValueFunction::Create(config.value_table_max,
                                    config.td_learning_rate,
                                    config.td_discount));
  return std::unique_ptr<LacbPolicy>(new LacbPolicy(config, std::move(vf)));
}

Status LacbPolicy::Initialize(const sim::Platform& platform) {
  return InitializeCapacityStage(config_.estimator, platform.num_brokers());
}

Status LacbPolicy::BeginDay(const sim::Platform& platform, size_t day) {
  if (capacity_stage() == nullptr) {
    return Status::FailedPrecondition("LACB policy was not initialized");
  }
  LACB_RETURN_NOT_OK(AssignmentPolicy::BeginDay(platform, day));
  obs::ActiveRegistry()
      .GetGauge("lacb.value_table_size")
      .Set(static_cast<double>(value_function_.table_size()));
  return Status::OK();
}

double LacbPolicy::CapacityHitFrequency(size_t broker) const {
  const CapacityStage* stage = capacity_stage();
  if (stage == nullptr || broker >= stage->capacity_hits().size() ||
      stage->days_elapsed() <
          std::max<size_t>(1, config_.min_days_for_hit_frequency)) {
    return 0.0;
  }
  return static_cast<double>(stage->capacity_hits()[broker]) /
         static_cast<double>(stage->days_elapsed());
}

Result<std::vector<int64_t>> LacbPolicy::AssignBatch(const BatchInput& input) {
  const la::Matrix& u = *input.utility;
  const std::vector<double>& w = *input.workloads;
  LACB_ASSIGN_OR_RETURN(const std::vector<double>* today,
                        TodaysCapacities(u.cols()));
  const std::vector<double>& capacity = *today;
  matching::SolveStats* stats = StatsSink(input);
  size_t num_requests = u.rows();
  std::vector<int64_t> out(num_requests, matching::kUnmatched);

  // Alg. 2 line 4: available brokers B₊.
  std::vector<size_t>& eligible = scratch_.eligible;
  eligible.clear();
  for (size_t c = 0; c < u.cols(); ++c) {
    if (w[c] < capacity[c]) eligible.push_back(c);
  }
  if (eligible.empty() || num_requests == 0) return out;

  // Alg. 2 line 6 / Eq. 15: refine utilities of frequently saturated
  // brokers by the value-function delta at their current residual. The
  // per-column deltas are computed first, then fused into the column
  // gather by the shared scoring kernel.
  la::Matrix& refined = scratch_.refined;
  {
    LACB_TRACE_SPAN("value_refine");
    std::vector<double>& column_delta = scratch_.column_delta;
    column_delta.assign(eligible.size(), 0.0);
    size_t refined_brokers = 0;
    for (size_t c = 0; c < eligible.size(); ++c) {
      size_t b = eligible[c];
      if (config_.use_value_function &&
          CapacityHitFrequency(b) > config_.capacity_hit_threshold) {
        double delta = value_function_.RefinementDelta(capacity[b] - w[b]);
        if (config_.clamp_refinement) delta = std::min(0.0, delta);
        column_delta[c] = delta;
        ++refined_brokers;
      }
    }
    LACB_RETURN_NOT_OK(matching::approx::GatherRefinedColumns(
        u, eligible, column_delta, &refined));
    if (refined_brokers > 0) {
      thread_local obs::ActiveCounter refined_columns(
          "lacb.refined_broker_columns");
      refined_columns.Get().Increment(refined_brokers);
    }
  }

  // LACB-Opt, Alg. 3: prune broker columns to the per-request candidates.
  std::vector<size_t>& active = scratch_.active;
  la::Matrix* solve_matrix = &refined;
  if (config_.use_cbs && eligible.size() > num_requests) {
    LACB_TRACE_SPAN("cbs_prune");
    LACB_RETURN_NOT_OK(matching::CandidateColumns(refined, &rng_, &active));
    LACB_RETURN_NOT_OK(
        matching::RestrictColumns(refined, active, &scratch_.pruned));
    solve_matrix = &scratch_.pruned;
    thread_local obs::ActiveCounter pruned_columns("lacb.cbs_pruned_columns");
    pruned_columns.Get().Increment(eligible.size() - active.size());
  } else {
    active.resize(eligible.size());
    for (size_t i = 0; i < active.size(); ++i) active[i] = i;
  }

  // Alg. 2 line 7: match on the (padded or pruned) graph. The km_solve
  // span and KM iteration counters live inside
  // matching::MaxWeightAssignment.
  matching::Assignment assignment;
  if (solve_matrix->rows() <= solve_matrix->cols()) {
    if (config_.use_cbs || !config_.pad_to_square) {
      LACB_ASSIGN_OR_RETURN(
          assignment, matching::MaxWeightAssignment(*solve_matrix, stats));
    } else {
      LACB_ASSIGN_OR_RETURN(la::Matrix square,
                            matching::PadToSquare(*solve_matrix));
      LACB_ASSIGN_OR_RETURN(assignment,
                            matching::MaxWeightAssignment(square, stats));
      assignment.col_of_row.resize(num_requests);
    }
    for (size_t r = 0; r < num_requests; ++r) {
      int64_t col = assignment.col_of_row[r];
      if (col == matching::kUnmatched) continue;
      size_t local = active[static_cast<size_t>(col)];
      out[r] = static_cast<int64_t>(eligible[local]);
    }
  } else {
    // More requests than available brokers: transpose so each broker
    // serves one request.
    la::Matrix t = solve_matrix->Transposed();
    LACB_ASSIGN_OR_RETURN(assignment, matching::MaxWeightAssignment(t, stats));
    for (size_t c = 0; c < t.rows(); ++c) {
      int64_t r = assignment.col_of_row[c];
      if (r == matching::kUnmatched) continue;
      size_t local = active[c];
      out[static_cast<size_t>(r)] = static_cast<int64_t>(eligible[local]);
    }
  }

  // Alg. 2 lines 8-10: workload bookkeeping is done by the platform; here
  // we back up the value function along each realized transition.
  if (config_.use_value_function) {
    LACB_TRACE_SPAN("value_refine");
    for (size_t r = 0; r < num_requests; ++r) {
      if (out[r] == matching::kUnmatched) continue;
      size_t b = static_cast<size_t>(out[r]);
      double cr = capacity[b] - w[b];
      value_function_.Update(cr, cr - 1.0, u(r, b));
    }
  }
  return out;
}

Status LacbPolicy::EndDay(const sim::DayOutcome& outcome) {
  if (capacity_stage() == nullptr) {
    return Status::FailedPrecondition("LACB policy was not initialized");
  }
  LACB_RETURN_NOT_OK(AssignmentPolicy::EndDay(outcome));
  const std::vector<double>& capacity = capacity_stage()->capacities();
  // Day boundary: each broker-day is an episode of the assignment MDP.
  // Ground the value function at the realized final residuals.
  if (config_.use_value_function) {
    for (size_t b = 0; b < outcome.per_broker_workload.size() &&
                       b < capacity.size();
         ++b) {
      double w = outcome.per_broker_workload[b];
      if (w <= 0.0) continue;  // idle brokers saw no episode
      value_function_.TerminalUpdate(std::max(0.0, capacity[b] - w));
    }
  }

  // Exploration-health telemetry: how often capacity binds (vs the paper's
  // δ threshold) and how many brokers currently clear it.
  obs::MetricRegistry& registry = obs::ActiveRegistry();
  const size_t num_brokers = capacity.size();
  double freq_sum = 0.0;
  size_t above_threshold = 0;
  for (size_t b = 0; b < num_brokers; ++b) {
    double f = CapacityHitFrequency(b);
    freq_sum += f;
    if (f > config_.capacity_hit_threshold) ++above_threshold;
  }
  if (num_brokers > 0) {
    registry.GetGauge("lacb.capacity_hit_freq_mean")
        .Set(freq_sum / static_cast<double>(num_brokers));
  }
  registry.GetGauge("lacb.brokers_above_hit_threshold")
      .Set(static_cast<double>(above_threshold));
  return Status::OK();
}

Status LacbPolicy::SaveState(persist::ByteWriter* w) const {
  LACB_RETURN_NOT_OK(AssignmentPolicy::SaveState(w));
  w->VecF64(value_function_.table());
  w->Str(rng_.SaveState());
  return Status::OK();
}

Status LacbPolicy::LoadState(persist::ByteReader* r) {
  LACB_RETURN_NOT_OK(AssignmentPolicy::LoadState(r));
  LACB_ASSIGN_OR_RETURN(std::vector<double> table, r->VecF64());
  LACB_RETURN_NOT_OK(value_function_.set_table(std::move(table)));
  LACB_ASSIGN_OR_RETURN(std::string rng_state, r->Str());
  return rng_.LoadState(rng_state);
}

}  // namespace lacb::policy
