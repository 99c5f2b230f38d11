// Platform: the batched-matching environment (the paper's Beike simulator).
//
// Drives the fixed-time-window protocol of Sec. III: days are split into
// batches; each batch exposes its requests and the predicted utility matrix
// u_{r,b}; the policy under evaluation commits an assignment; at day end
// the ground-truth sign-up model converts each broker's realized daily
// workload into (i) the observed sign-up rate s_b — the bandit feedback
// triple (x_b, w_b, s_b) — and (ii) the *realized* utility of each
// assignment, u_{r,b} × quality(w_b), which is the evaluation metric: this
// is where overloading a top broker actually destroys value.
//
// Client appeals (Sec. VI-B discussion) are supported: with probability
// appeal_rate × (1 − u) a freshly assigned client rejects the broker; the
// pair earns zero utility, the broker's workload is restored, and the
// request is re-queued into the next batch.

#ifndef LACB_SIM_PLATFORM_H_
#define LACB_SIM_PLATFORM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/rng.h"
#include "lacb/la/matrix.h"
#include "lacb/persist/bytes.h"
#include "lacb/sim/broker.h"
#include "lacb/sim/dataset.h"
#include "lacb/sim/request.h"
#include "lacb/sim/signup_model.h"
#include "lacb/sim/utility_model.h"

namespace lacb::sim {

/// \brief One feedback observation (x_b, w_b, s_b) for one broker-day.
struct TrialTriple {
  size_t broker = 0;
  la::Vector context;
  double workload = 0.0;
  double signup_rate = 0.0;
};

/// \brief One committed (broker, predicted-utility) assignment edge.
struct CommittedEdge {
  size_t broker = 0;
  double utility = 0.0;
};

/// \brief Result of an externally-batched commit (the serve path): which
/// requests appealed (for the caller to re-queue) and which edges were
/// accepted into today's workload.
struct ExternalCommitOutcome {
  std::vector<Request> appealed;
  std::vector<CommittedEdge> accepted;
  /// True when the commit token had already been applied: the outcome is
  /// the cached original and nothing was re-applied (idempotent replay).
  bool duplicate = false;
};

/// \brief End-of-day outcome delivered to the engine.
struct DayOutcome {
  /// One triple per broker (workload may be 0).
  std::vector<TrialTriple> trials;
  /// Σ over the day's surviving assignments of u_{r,b}·quality_b(w_b).
  double realized_utility = 0.0;
  /// Per-broker share of realized_utility.
  std::vector<double> per_broker_utility;
  /// Per-broker served requests this day.
  std::vector<double> per_broker_workload;
  /// Number of requests whose clients appealed this day.
  size_t appeals = 0;
};

/// \brief The simulated matching environment.
class Platform {
 public:
  static Result<Platform> Create(const DatasetConfig& config);

  const DatasetConfig& config() const { return config_; }
  const std::vector<Broker>& brokers() const { return brokers_; }
  const UtilityModel& utility_model() const { return utility_model_; }
  const SignupModel& signup_model() const { return signup_model_; }
  size_t num_days() const { return requests_.size(); }
  size_t num_brokers() const { return brokers_.size(); }

  /// \brief Full generated request schedule, [day][batch][i] (replay
  /// drivers read this to feed the serving layer).
  const std::vector<std::vector<std::vector<Request>>>& all_requests() const {
    return requests_;
  }

  /// \brief Replaces the generated request schedule (scenario arrival
  /// shaping — docs/scenarios.md). The day count must match the generated
  /// horizon and no day may be open. The ground-truth models and RNG are
  /// untouched, so an identical schedule leaves every outcome bit-identical.
  Status SetRequestSchedule(
      std::vector<std::vector<std::vector<Request>>> schedule);

  // --- Broker churn (docs/scenarios.md) ---------------------------------
  //
  // The roster is a fixed superset: brokers never get added or removed,
  // they toggle an activity mask. The mask is bookkeeping the scenario
  // layer enforces at solve time (inactive columns are steered away from
  // and sanitized out of assignments before commit); the platform only
  // stores it, persists it, and offers the fail-retirement primitive.

  /// \brief Marks broker `b` active/inactive. The default (no call ever
  /// made) keeps every broker active with zero bookkeeping.
  Status SetBrokerActive(size_t b, bool active);

  /// \brief True unless `b` was explicitly deactivated.
  bool BrokerActive(size_t b) const {
    return active_.empty() || b >= active_.size() || active_[b] != 0;
  }

  /// \brief True when any broker is inactive (fast path: scenario-free
  /// runs never allocate the mask).
  bool AnyBrokerInactive() const { return any_inactive_; }

  /// \brief Copy of the activity mask (1 = active); empty when no broker
  /// was ever deactivated.
  std::vector<uint8_t> ActiveMaskCopy() const { return active_; }

  /// \brief Mid-day hard failure of broker `b`: every edge committed to it
  /// today is voided (its realized utility is lost) and its daily workload
  /// is zeroed. Requests stay terminally assigned — conservation ledgers
  /// are unaffected; only value is destroyed. Requires an open day.
  Status RetireBrokerDay(size_t b);

  /// \brief Opens day `day` (must follow the previously closed day).
  Status StartDay(size_t day);

  /// \brief Opens day `day` with no internal batch schedule: the caller
  /// supplies arbitrarily-formed batches via CommitExternalBatch (the
  /// online serving path). Appeals are returned to the caller instead of
  /// being re-queued internally, and EndDay closes the day as usual. The
  /// ground-truth models and RNG stream are shared with the batch
  /// protocol, so identical batch compositions yield bit-identical
  /// outcomes.
  Status StartDayExternal(size_t day);

  /// \brief Commits an externally-formed batch against the open external
  /// day: applies appeals (returned for re-queueing), updates workloads,
  /// and records accepted edges for the day's realized utility.
  ///
  /// A non-zero `commit_token` makes the commit idempotent: the first
  /// commit with a token applies and caches its outcome; any later commit
  /// with the same token (a retry after a lost acknowledgement, or a
  /// re-driven batch's twin) returns the cached outcome with `duplicate`
  /// set, applies nothing, and draws no RNG — so replays can never
  /// double-decrement broker capacity. Token 0 disables deduplication
  /// (legacy/offline callers). The cache is per external day.
  Result<ExternalCommitOutcome> CommitExternalBatch(
      const std::vector<Request>& requests,
      const std::vector<int64_t>& assignment, uint64_t commit_token = 0);

  /// \brief Looks up the cached outcome of `commit_token` in the open
  /// external day, or nullptr when that token never committed. Query-only:
  /// the caller uses it to reconcile a lost acknowledgement after retries
  /// are exhausted (did my last attempt actually apply?).
  const ExternalCommitOutcome* FindExternalCommit(uint64_t commit_token) const;

  /// \brief Number of batches in the currently open day.
  size_t NumBatchesToday() const { return today_batches_.size(); }

  /// \brief Requests of batch `batch` of the open day (re-queued appeals
  /// included).
  Result<std::vector<Request>> BatchRequests(size_t batch) const;

  /// \brief Predicted-utility matrix (requests × all brokers) of a batch.
  Result<la::Matrix> BatchUtility(size_t batch) const;

  /// \brief Commits `assignment[i]` = broker index (or kUnmatched) for the
  /// i-th request of the batch. Applies appeals, updates workloads.
  Status CommitAssignment(size_t batch,
                          const std::vector<int64_t>& assignment);

  /// \brief Closes the open day: computes sign-up observations and realized
  /// utilities, rolls broker work profiles forward.
  Result<DayOutcome> EndDay();

  /// \brief Current daily workload per broker (within the open day).
  const std::vector<double>& workloads_today() const {
    return workloads_today_;
  }

  /// \brief Serializes all mutable environment state: the RNG stream,
  /// open-day ledger (workloads, committed edges, appeal overflow, the
  /// per-token external-commit cache) and per-broker rolled-forward
  /// profile fields. Static state (roster, request schedule, models) is
  /// regenerated from the config on restore, so only mutations are
  /// stored. Checkpointing an open *internal* day is unsupported (the
  /// serve path only opens external days).
  Status SaveState(persist::ByteWriter* w) const;

  /// \brief Restores state saved by SaveState into a Platform created
  /// from the same DatasetConfig.
  Status LoadState(persist::ByteReader* r);

 private:
  Platform(DatasetConfig config, std::vector<Broker> brokers,
           std::vector<std::vector<std::vector<Request>>> requests,
           UtilityModel utility_model, Rng rng);

  DatasetConfig config_;
  std::vector<Broker> brokers_;
  std::vector<std::vector<std::vector<Request>>> requests_;  // [day][batch]
  UtilityModel utility_model_;
  SignupModel signup_model_;
  Rng rng_;

  // Open-day state.
  bool day_open_ = false;
  bool external_day_ = false;  // opened via StartDayExternal
  size_t current_day_ = 0;
  std::vector<std::vector<Request>> today_batches_;
  std::vector<bool> batch_committed_;
  std::vector<double> workloads_today_;
  std::vector<CommittedEdge> committed_;
  std::vector<Request> appeal_overflow_;  // appeals past the last batch
  size_t appeals_today_ = 0;
  // Churn activity mask: empty until a broker is first deactivated, so the
  // scenario-free path carries no per-broker overhead.
  std::vector<uint8_t> active_;
  bool any_inactive_ = false;
  // Applied external-commit tokens -> cached outcomes (cleared per day).
  std::unordered_map<uint64_t, ExternalCommitOutcome> external_commits_;
};

}  // namespace lacb::sim

#endif  // LACB_SIM_PLATFORM_H_
