#include "lacb/policy/assignment_policy.h"

#include "lacb/matching/approx/scoring.h"
#include "lacb/matching/assignment.h"
#include "lacb/policy/capacity_stage.h"

namespace lacb::policy {

Status AssignmentPolicy::BeginDay(const sim::Platform& platform, size_t day) {
  (void)day;
  return built_stage() ? built_stage()->BeginDay(platform) : Status::OK();
}

Status AssignmentPolicy::EndDay(const sim::DayOutcome& outcome) {
  return built_stage() ? built_stage()->EndDay(outcome) : Status::OK();
}

Status AssignmentPolicy::SaveState(persist::ByteWriter* w) const {
  return built_stage() ? built_stage()->SaveState(w) : Status::OK();
}

Status AssignmentPolicy::LoadState(persist::ByteReader* r) {
  return built_stage() ? built_stage()->LoadState(r) : Status::OK();
}

Status AssignmentPolicy::InitializeCapacityStage(
    const capacity::PersonalizedEstimatorConfig& config, size_t num_brokers) {
  if (!builds_capacity_stage_) return Status::OK();
  LACB_ASSIGN_OR_RETURN(
      capacity::PersonalizedCapacityEstimator estimator,
      capacity::PersonalizedCapacityEstimator::Create(config, num_brokers));
  capacity_stage_ = std::make_shared<CapacityStage>(std::move(estimator));
  return Status::OK();
}

Result<const std::vector<double>*> AssignmentPolicy::TodaysCapacities(
    size_t num_brokers) const {
  if (capacity_stage_ == nullptr ||
      capacity_stage_->capacities().size() != num_brokers) {
    return Status::FailedPrecondition(name() + " policy day was not begun");
  }
  return &capacity_stage_->capacities();
}

Result<std::vector<int64_t>> SolveBatchAssignment(
    const la::Matrix& utility, const std::vector<size_t>& eligible,
    bool pad_to_square, matching::SolveStats* stats) {
  namespace approx = matching::approx;
  const size_t num_requests = utility.rows();
  std::vector<int64_t> out(num_requests, matching::kUnmatched);
  if (eligible.empty() || num_requests == 0) return out;
  // The gathers reject eligible columns outside the utility width.
  if (eligible.size() >= num_requests) {
    la::Matrix w;
    LACB_RETURN_NOT_OK(approx::GatherColumns(utility, eligible, &w));
    matching::Assignment a;
    if (pad_to_square) {
      LACB_ASSIGN_OR_RETURN(la::Matrix square, matching::PadToSquare(w));
      LACB_ASSIGN_OR_RETURN(a, matching::MaxWeightAssignment(square, stats));
    } else {
      LACB_ASSIGN_OR_RETURN(a, matching::MaxWeightAssignment(w, stats));
    }
    for (size_t r = 0; r < num_requests; ++r) {
      int64_t col = a.col_of_row[r];
      if (col != matching::kUnmatched) {
        out[r] = static_cast<int64_t>(eligible[static_cast<size_t>(col)]);
      }
    }
    return out;
  }

  // Fewer brokers than requests: solve the transposed problem so every
  // eligible broker serves exactly one request; the rest stay unmatched.
  la::Matrix w;
  LACB_RETURN_NOT_OK(approx::GatherColumnsTransposed(utility, eligible, &w));
  LACB_ASSIGN_OR_RETURN(matching::Assignment a,
                        matching::MaxWeightAssignment(w, stats));
  for (size_t c = 0; c < eligible.size(); ++c) {
    int64_t r = a.col_of_row[c];
    if (r != matching::kUnmatched) {
      out[static_cast<size_t>(r)] = static_cast<int64_t>(eligible[c]);
    }
  }
  return out;
}

}  // namespace lacb::policy
