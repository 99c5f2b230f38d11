#include "lacb/policy/an_policy.h"

namespace lacb::policy {

Result<std::unique_ptr<AnPolicy>> AnPolicy::Create(
    const AnPolicyConfig& config) {
  LACB_ASSIGN_OR_RETURN(bandit::NeuralUcb bandit,
                        bandit::NeuralUcb::Create(config.bandit));
  return std::unique_ptr<AnPolicy>(
      new AnPolicy(config, std::move(bandit)));
}

Status AnPolicy::BeginDay(const sim::Platform& platform, size_t day) {
  (void)day;
  capacity_.resize(platform.num_brokers());
  for (size_t b = 0; b < platform.num_brokers(); ++b) {
    LACB_ASSIGN_OR_RETURN(
        capacity_[b],
        bandit_.SelectValue(platform.brokers()[b].ContextVector()));
  }
  return Status::OK();
}

Result<std::vector<int64_t>> AnPolicy::AssignBatch(const BatchInput& input) {
  const la::Matrix& u = *input.utility;
  const std::vector<double>& w = *input.workloads;
  if (capacity_.size() != u.cols()) {
    return Status::FailedPrecondition("AN policy day was not begun");
  }
  std::vector<size_t> eligible;
  for (size_t c = 0; c < u.cols(); ++c) {
    if (w[c] < capacity_[c]) eligible.push_back(c);
  }
  return SolveBatchAssignment(u, eligible, config_.pad_to_square,
                              StatsSink(input));
}

Status AnPolicy::EndDay(const sim::DayOutcome& outcome) {
  for (const sim::TrialTriple& t : outcome.trials) {
    if (t.workload <= 0.0) continue;  // idle brokers reveal nothing
    LACB_RETURN_NOT_OK(bandit_.Observe(t.context, t.workload, t.signup_rate));
  }
  return Status::OK();
}

Status AnPolicy::SaveState(persist::ByteWriter* w) const {
  LACB_RETURN_NOT_OK(bandit_.SaveState(w));
  w->VecF64(capacity_);
  return Status::OK();
}

Status AnPolicy::LoadState(persist::ByteReader* r) {
  LACB_RETURN_NOT_OK(bandit_.LoadState(r));
  LACB_ASSIGN_OR_RETURN(capacity_, r->VecF64());
  return Status::OK();
}

}  // namespace lacb::policy
