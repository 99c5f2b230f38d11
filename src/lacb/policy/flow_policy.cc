#include "lacb/policy/flow_policy.h"

#include <cmath>

#include "lacb/matching/min_cost_flow.h"

namespace lacb::policy {

Result<std::unique_ptr<FlowPolicy>> FlowPolicy::Create(
    const FlowPolicyConfig& config) {
  return std::unique_ptr<FlowPolicy>(new FlowPolicy(config));
}

Status FlowPolicy::Initialize(const sim::Platform& platform) {
  return InitializeCapacityStage(config_.estimator, platform.num_brokers());
}

Result<std::vector<int64_t>> FlowPolicy::AssignBatch(const BatchInput& input) {
  const la::Matrix& u = *input.utility;
  const std::vector<double>& w = *input.workloads;
  LACB_ASSIGN_OR_RETURN(const std::vector<double>* capacity,
                        TodaysCapacities(u.cols()));
  matching::SolveStats* stats = StatsSink(input);
  size_t num_requests = u.rows();
  std::vector<int64_t> out(num_requests, -1);
  if (num_requests == 0) return out;

  // Eligible brokers with integral residual capacity.
  std::vector<size_t> eligible;
  std::vector<int64_t> residual;
  for (size_t c = 0; c < u.cols(); ++c) {
    int64_t res = static_cast<int64_t>(std::floor((*capacity)[c] - w[c]));
    if (res > 0) {
      eligible.push_back(c);
      residual.push_back(res);
    }
  }
  if (eligible.empty()) return out;

  // Nodes: 0 source | 1..R requests | R+1..R+E brokers | sink.
  size_t source = 0;
  size_t sink = 1 + num_requests + eligible.size();
  matching::MinCostFlow g(sink + 1);
  // Edge ids of the request->broker arcs, for extraction.
  std::vector<std::vector<size_t>> edge_ids(num_requests);
  for (size_t r = 0; r < num_requests; ++r) {
    LACB_RETURN_NOT_OK(g.AddEdge(source, 1 + r, 1, 0.0).status());
    edge_ids[r].reserve(eligible.size());
    for (size_t e = 0; e < eligible.size(); ++e) {
      // Negative costs turn max-utility into min-cost; the solver handles
      // them via its Bellman-Ford potential bootstrap.
      LACB_ASSIGN_OR_RETURN(
          size_t id,
          g.AddEdge(1 + r, 1 + num_requests + e, 1, -u(r, eligible[e])));
      edge_ids[r].push_back(id);
    }
  }
  for (size_t e = 0; e < eligible.size(); ++e) {
    LACB_RETURN_NOT_OK(
        g.AddEdge(1 + num_requests + e, sink, residual[e], 0.0).status());
  }
  LACB_RETURN_NOT_OK(g.Solve(source, sink, INT64_MAX, stats).status());
  for (size_t r = 0; r < num_requests; ++r) {
    for (size_t e = 0; e < eligible.size(); ++e) {
      LACB_ASSIGN_OR_RETURN(int64_t flow, g.FlowOn(edge_ids[r][e]));
      if (flow > 0) {
        out[r] = static_cast<int64_t>(eligible[e]);
        break;
      }
    }
  }
  return out;
}

}  // namespace lacb::policy
