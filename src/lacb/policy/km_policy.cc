#include "lacb/policy/km_policy.h"

#include <numeric>

namespace lacb::policy {

Result<std::vector<int64_t>> KmPolicy::AssignBatch(const BatchInput& input) {
  const la::Matrix& u = *input.utility;
  std::vector<size_t> all(u.cols());
  std::iota(all.begin(), all.end(), 0);
  return SolveBatchAssignment(u, all, pad_to_square_, StatsSink(input));
}

}  // namespace lacb::policy
