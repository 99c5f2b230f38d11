#include "lacb/policy/capacity_stage.h"

#include <algorithm>
#include <cmath>

#include "lacb/obs/obs.h"

namespace lacb::policy {

Status CapacityStage::BeginDay(const sim::Platform& platform) {
  LACB_TRACE_SPAN("capacity_estimate");
  capacities_.resize(platform.num_brokers());
  capacity_hits_.resize(platform.num_brokers(), 0);
  for (size_t b = 0; b < platform.num_brokers(); ++b) {
    LACB_ASSIGN_OR_RETURN(
        capacities_[b],
        estimator_.Estimate(b, platform.brokers()[b].ContextVector()));
  }
  return Status::OK();
}

Status CapacityStage::EndDay(const sim::DayOutcome& outcome) {
  ++days_elapsed_;
  size_t hits_today = 0;
  for (const sim::TrialTriple& t : outcome.trials) {
    if (t.broker < capacities_.size() && capacities_[t.broker] > 0.0 &&
        t.workload >= capacities_[t.broker]) {
      ++capacity_hits_[t.broker];
      ++hits_today;
    }
    if (t.workload <= 0.0) continue;  // idle brokers reveal nothing
    LACB_RETURN_NOT_OK(
        estimator_.Update(t.broker, t.context, t.workload, t.signup_rate));
  }
  if (hits_today > 0) {
    obs::ActiveRegistry()
        .GetCounter("lacb.capacity_hits")
        .Increment(hits_today);
  }
  return Status::OK();
}

Status CapacityStage::OverrideCapacity(size_t broker, double capacity) {
  if (broker >= capacities_.size()) {
    return Status::OutOfRange("capacity override: unknown broker");
  }
  capacities_[broker] = capacity;
  return Status::OK();
}

double CapacityStage::MeanAbsoluteError(const sim::Platform& platform) const {
  const size_t n = std::min(capacities_.size(), platform.num_brokers());
  double abs_err = 0.0;
  for (size_t b = 0; b < n; ++b) {
    abs_err +=
        std::abs(capacities_[b] - platform.brokers()[b].latent.true_capacity);
  }
  return abs_err / static_cast<double>(std::max<size_t>(1, n));
}

Status CapacityStage::SaveState(persist::ByteWriter* w) const {
  LACB_RETURN_NOT_OK(estimator_.SaveState(w));
  w->VecF64(capacities_);
  w->VecU64(
      std::vector<uint64_t>(capacity_hits_.begin(), capacity_hits_.end()));
  w->U64(days_elapsed_);
  return Status::OK();
}

Status CapacityStage::LoadState(persist::ByteReader* r) {
  LACB_RETURN_NOT_OK(estimator_.LoadState(r));
  LACB_ASSIGN_OR_RETURN(capacities_, r->VecF64());
  LACB_ASSIGN_OR_RETURN(std::vector<uint64_t> hits, r->VecU64());
  if (hits.size() != capacities_.size()) {
    return Status::InvalidArgument("capacity stage broker count mismatch");
  }
  capacity_hits_.assign(hits.begin(), hits.end());
  LACB_ASSIGN_OR_RETURN(uint64_t days, r->U64());
  days_elapsed_ = static_cast<size_t>(days);
  return Status::OK();
}

}  // namespace lacb::policy
