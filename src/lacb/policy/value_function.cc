#include "lacb/policy/value_function.h"

#include <algorithm>
#include <cmath>

#include "lacb/obs/context.h"

namespace lacb::policy {

Result<CapacityValueFunction> CapacityValueFunction::Create(
    size_t cr_max, double learning_rate, double discount) {
  if (cr_max == 0) {
    return Status::InvalidArgument("cr_max must be positive");
  }
  if (learning_rate <= 0.0 || learning_rate > 1.0) {
    return Status::InvalidArgument("learning rate must be in (0,1]");
  }
  if (discount < 0.0 || discount > 1.0) {
    return Status::InvalidArgument("discount must be in [0,1]");
  }
  return CapacityValueFunction(cr_max, learning_rate, discount);
}

size_t CapacityValueFunction::Index(double residual) const {
  double clamped =
      std::clamp(residual, 0.0, static_cast<double>(table_.size() - 1));
  return static_cast<size_t>(std::llround(clamped));
}

double CapacityValueFunction::Value(double residual) const {
  return table_[Index(residual)];
}

double CapacityValueFunction::RefinementDelta(double residual) const {
  return discount_ * Value(residual - 1.0) - Value(residual);
}

void CapacityValueFunction::TerminalUpdate(double residual) {
  size_t idx = Index(residual);
  table_[idx] += learning_rate_ * (0.0 - table_[idx]);
  thread_local obs::ActiveCounter terminal_updates("vf.terminal_updates");
  terminal_updates.Get().Increment();
}

void CapacityValueFunction::Update(double residual_before,
                                   double residual_after, double reward) {
  size_t idx = Index(residual_before);
  double target = reward + discount_ * Value(residual_after);
  table_[idx] += learning_rate_ * (target - table_[idx]);
  thread_local obs::ActiveCounter td_updates("vf.td_updates");
  td_updates.Get().Increment();
}

}  // namespace lacb::policy
