// AssignmentService: the online serving layer over the LACB pipeline.
//
// Turns the offline day/batch replay (core::RunPolicy) into a concurrent
// request-assignment service:
//
//   producers ──▶ BoundedRequestQueue ──▶ batcher thread (MicroBatcher)
//                 (admission control)          │ closed batches
//                                              ▼
//                                   bounded batch channel
//                                              │
//                              worker pool (one policy replica each)
//                     snapshot workloads ▸ utility matrix ▸ AssignBatch
//                                              │
//                      Platform commit (serialized ground truth: appeals,
//                      realized-utility edges) + ShardedBrokerStore commit
//                      (striped, concurrent view) ▸ appeals re-queued
//
// The environment of record stays the simulator's Platform — created from
// the same DatasetConfig as the offline engine, so the ground-truth models
// and RNG streams are identical. Policy *compute* (AssignBatch, which
// carries the cubic KM cost) runs concurrently across workers; only the
// O(batch) truth commit serializes on the environment mutex. Each worker
// owns a policy replica built by the same factory; replicas share learning
// through the broadcast day-close feedback but keep independent
// exploration streams.
//
// Day protocol: OpenDay → Submit/Flush (any threads) → CloseDay (drains
// in-flight work, closes the platform day, broadcasts feedback). With one
// worker and flush-delimited batches the realized utility is bit-identical
// to core::RunPolicy — the determinism gate in serve_test.cc.
//
// Fault tolerance (docs/robustness.md): every batch carries an idempotent
// commit token, so commit retries (exponential backoff + deterministic
// jitter, bounded attempts) and supervisor re-drives can never
// double-decrement broker capacity; a solve that exceeds its budget
// degrades to a greedy capacity-aware assignment instead of missing the
// batch; a heartbeat supervisor re-drives the in-flight batch of a
// stalled/crashed worker and restarts crashed threads; health coarsens to
// healthy/degraded/unhealthy on the serve.health_state gauge and /healthz.
// Every accepted request reaches exactly one terminal —
//   submitted == assigned + unmatched + failed + dropped_appeals
// — under any schedule of injected faults (FaultPlan in ServeOptions).

#ifndef LACB_SERVE_SERVICE_H_
#define LACB_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <unordered_set>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/matching/solve_stats.h"
#include "lacb/obs/event_trace.h"
#include "lacb/persist/checkpoint.h"
#include "lacb/persist/wal.h"
#include "lacb/obs/exposition.h"
#include "lacb/obs/metrics.h"
#include "lacb/obs/slo.h"
#include "lacb/obs/trace.h"
#include "lacb/policy/assignment_policy.h"
#include "lacb/scenario/engine.h"
#include "lacb/serve/broker_store.h"
#include "lacb/serve/fault.h"
#include "lacb/serve/micro_batcher.h"
#include "lacb/serve/request_queue.h"
#include "lacb/serve/supervisor.h"
#include "lacb/sim/platform.h"

namespace lacb::serve {

/// \brief Which event stream of the service an SLO classifies.
enum class SloTarget {
  /// Good = the request committed with end-to-end latency (enqueue →
  /// commit) within SloSpec::latency_threshold_seconds.
  kLatency,
  /// Good = the request was admitted at Submit (bad = shed).
  kAdmission,
};

/// \brief One SLO the service evaluates: the generic burn-rate spec plus
/// the serve-side event stream it classifies.
struct ServedSlo {
  SloTarget target = SloTarget::kLatency;
  obs::SloSpec spec;
};

/// \brief Per-request terminal fates of one disposed batch, keyed by the
/// batch's idempotent commit token (docs/sharding.md). Every request id of
/// the batch appears in exactly one list; `appealed` ids are *not*
/// terminal — they re-enter through the carryover buffer and reappear in a
/// later batch's disposition. The cluster coordinator folds these into its
/// fleet-wide exactly-once ledger.
struct BatchDisposition {
  uint64_t token = 0;
  uint64_t day = 0;
  std::vector<int64_t> assigned;   ///< Committed to a broker (terminal).
  std::vector<int64_t> unmatched;  ///< Left unassigned (terminal).
  std::vector<int64_t> appealed;   ///< Re-queued to carryover (pending).
  std::vector<int64_t> failed;     ///< Commit-exhausted / drained (terminal).
  std::vector<int64_t> dropped;    ///< Appeals dropped at day end/shutdown.
};
using DispositionSink = std::function<void(const BatchDisposition&)>;

/// \brief Serving-layer configuration.
struct ServeOptions {
  /// Ingestion-queue bound; arrivals beyond it are shed (admission control).
  size_t queue_capacity = 4096;
  /// Micro-batch close limits (see MicroBatcher).
  size_t max_batch_size = 64;
  std::chrono::microseconds max_batch_delay{2000};
  /// Assignment worker threads (each gets its own policy replica).
  size_t num_workers = 1;
  /// Closed-batch channel bound; 0 = 2 × num_workers. A full channel
  /// stalls the batcher, which backpressures the ingestion queue.
  size_t batch_channel_capacity = 0;
  /// Prometheus exposition listener (GET /metrics): -1 disables it, 0
  /// binds an ephemeral port (read it back via exposition_port()), any
  /// other value binds that port on 127.0.0.1. The scrape endpoint serves
  /// the registry captured at Start(), and /healthz reports the service's
  /// health state machine (200 healthy/degraded, 503 unhealthy).
  int exposition_port = -1;

  // --- Fault tolerance (docs/robustness.md) ---

  /// Per-batch solve budget: when the assignment solve exceeds it
  /// (measured, or injected via FaultPlan::solve_over_budget_rate) the
  /// worker discards the solve and falls back to GreedyCapacityAssign
  /// over the store's residual capacities, counting
  /// serve.degraded_batches. Zero = unlimited (no degradation).
  std::chrono::microseconds solve_budget{0};
  /// Commit retry bound: total attempts per batch before the batch is
  /// declared failed (with explicit serve.failed_requests accounting).
  size_t commit_max_attempts = 4;
  /// Exponential backoff between commit attempts: attempt k sleeps
  /// base × 2^(k−1) capped at commit_backoff_cap, scaled by a
  /// deterministic per-(token, attempt) jitter in [0.5, 1].
  std::chrono::microseconds commit_backoff_base{100};
  std::chrono::microseconds commit_backoff_cap{5000};
  /// Worker supervision: a busy worker whose heartbeat is older than this
  /// is stalled (its parked batch is re-driven); a worker that announced
  /// an injected crash is re-driven and restarted. Zero disables the
  /// supervisor — and with it crash injection, which needs a restarter.
  std::chrono::microseconds stall_timeout{0};
  /// Supervisor heartbeat poll cadence.
  std::chrono::microseconds supervisor_poll{500};
  /// Deterministic fault-injection plan. Default (all rates zero) installs
  /// no injector: every injection point reduces to a null check and the
  /// serve path is byte-identical to the fault-free build.
  FaultPlan fault_plan;

  // --- Durable state (docs/persistence.md) ---

  /// Checkpoint directory. Empty (the default) disables persistence
  /// entirely: no checkpoints, no WAL, no restore — the serve path is
  /// byte-identical to the pre-persistence build. Non-empty: Start()
  /// warm-restarts from the newest valid checkpoint in the directory
  /// (replaying the WAL tail), every committed batch is appended to the
  /// live WAL, and CloseDay cuts a checkpoint at the day boundary.
  std::string checkpoint_dir;
  /// Also cut a checkpoint mid-day every this many committed batches
  /// (evaluated at quiesce points — MaybeCheckpoint() after WaitIdle).
  /// Zero: day-boundary checkpoints only.
  uint64_t checkpoint_interval_batches = 0;
  /// fsync the WAL after every record (and checkpoint files after every
  /// write). Tests on tmpfs may disable it for speed; real serving keeps
  /// it on — a torn tail is recoverable, a lost sync is not.
  bool wal_fsync = true;

  // --- Cluster hooks (docs/sharding.md) ---

  /// Observer of every batch's terminal disposition (and of appeals moving
  /// to carryover). Invoked on the disposing thread *before* the batch's
  /// in-system units retire, so an observer that forwards dispositions over
  /// a socket is guaranteed to enqueue them before WaitIdle() returns.
  /// Empty (the default) — no per-batch id bookkeeping is done at all.
  DispositionSink disposition_sink;
  /// Observer of every durable WAL record: called with the WAL's current
  /// checkpoint sequence and the exact framed bytes after the local append
  /// succeeds (under the environment mutex — keep it cheap / non-blocking;
  /// the cluster layer hands the bytes to an outbox thread). Empty: the
  /// WAL writer gets no sink installed.
  std::function<void(uint64_t seq, std::string_view record)> wal_record_sink;
  /// Observer of every cut checkpoint (the replication bootstrap
  /// envelope): sequence number plus the encoded checkpoint image, called
  /// after the local atomic write succeeds and before any WAL record of
  /// the new sequence ships.
  std::function<void(uint64_t seq, const std::string& encoded)>
      checkpoint_sink;

  // --- Performance attribution (docs/observability.md) ---

  /// Per-request stage-latency attribution: queue-wait, channel-wait,
  /// solve, commit, and disposition histograms plus cumulative per-stage
  /// totals (the batch critical-path breakdown). Off by default — the
  /// serve path takes no per-request clock reads and registers no
  /// stage instruments.
  bool stage_attribution = false;
  /// Solver introspection: workers ask the policy solve for SolveStats
  /// (problem size, iterations, augmenting paths, dual updates, phase
  /// timings, objective) and fold them into serve.solver_* instruments.
  bool solver_introspection = false;
  /// Declarative SLOs the service evaluates: each gets slo.<name>.*
  /// burn-rate gauges and feeds the health state machine (fast burn on a
  /// critical SLO → unhealthy; any burn → degraded). Empty = none.
  std::vector<ServedSlo> slos;

  // --- Dynamic scenarios (docs/scenarios.md) ---

  /// Compiled scenario driving broker churn (and, via the load generator's
  /// LoadMode::kScenario, arrival shaping). Null — the default — leaves the
  /// serve path byte-identical to the pre-scenario build. Two-sided mode is
  /// offline-only; a scenario with it enabled is rejected at Create().
  /// Churn semantics: join/leave events flip the platform's activity mask
  /// at their (day, batch_offset) boundary and sync the broker store (cold
  /// capacity prior on join, retirement on leave); fail additionally voids
  /// the broker's in-flight day. Policy replicas are never mutated mid-day
  /// — they steer around inactive brokers via saturated workloads and pick
  /// up roster changes at the next BeginDay.
  std::shared_ptr<const scenario::CompiledScenario> scenario;
};

/// \brief What Start() recovered from durable state (all-default when
/// persistence is disabled or the directory held no valid checkpoint).
struct RestoreInfo {
  bool restored = false;       ///< A checkpoint was loaded.
  size_t day = 0;              ///< Day the restored state is positioned at.
  bool day_open = false;       ///< The restored day is mid-flight.
  uint64_t batches_committed_today = 0;  ///< Live commits already applied
                                         ///< to the restored open day.
  uint64_t replayed_batches = 0;  ///< WAL records re-applied past the
                                  ///< checkpoint.
};

/// \brief Aggregate service counters (a convenience copy of the obs
/// instruments, safe to read after Shutdown).
struct ServeStats {
  uint64_t submitted = 0;        ///< Requests accepted by the queue.
  uint64_t shed = 0;             ///< Requests refused at admission.
  uint64_t batches = 0;          ///< Batches committed.
  uint64_t assigned = 0;         ///< Requests committed to a broker.
  uint64_t unmatched = 0;        ///< Requests left unassigned by the policy.
  uint64_t appeals = 0;          ///< Appeals re-queued into later batches.
  uint64_t size_closes = 0;      ///< Batches closed by max_batch_size.
  uint64_t deadline_closes = 0;  ///< Batches closed by max_batch_delay.
  uint64_t flush_closes = 0;     ///< Batches closed by flush tokens.
  double assign_seconds = 0.0;   ///< Σ AssignBatch wall time (all workers).

  // --- Fault-tolerance ledger ---
  uint64_t failed = 0;            ///< Requests in commit-exhausted batches.
  uint64_t dropped_appeals = 0;   ///< Appeals dropped at day end/shutdown.
  uint64_t degraded_batches = 0;  ///< Batches solved by the greedy fallback.
  uint64_t commit_retries = 0;    ///< Commit attempts beyond the first.
  uint64_t redriven_batches = 0;  ///< Batches re-driven by the supervisor.
  uint64_t worker_stalls = 0;     ///< Stall detections.
  uint64_t worker_crashes = 0;    ///< Crash detections.
  uint64_t worker_restarts = 0;   ///< Workers restarted after a crash.

  // --- Scenario churn ledger ---
  uint64_t churn_events = 0;    ///< Churn events applied (state-changing).
  uint64_t churn_rejected = 0;  ///< Assignments voided: broker churned away.

  /// Aggregate solver introspection across all committed batches (zeroed
  /// unless ServeOptions::solver_introspection is on).
  matching::SolveStats solver;
};

/// \brief The concurrent online assignment service.
class AssignmentService {
 public:
  /// \brief Builds the service over a fresh platform instance of `config`,
  /// with one policy replica per worker from `factory`. The service is
  /// idle until Start().
  static Result<std::unique_ptr<AssignmentService>> Create(
      const sim::DatasetConfig& config, const policy::PolicyFactory& factory,
      const ServeOptions& options);

  ~AssignmentService();
  AssignmentService(const AssignmentService&) = delete;
  AssignmentService& operator=(const AssignmentService&) = delete;

  /// \brief Spawns the batcher and worker threads. Telemetry written by
  /// those threads targets the obs context active on the calling thread.
  Status Start();

  /// \brief Opens platform day `day` and runs every replica's BeginDay.
  /// Requires an idle service (previous day closed, no in-flight work).
  Status OpenDay(size_t day);

  /// \brief Thread-safe producer entry point. Returns false when the
  /// request was shed at admission (queue full). Requires an open day.
  bool Submit(const sim::Request& request);

  /// \brief Enqueues a flush token: the micro-batcher closes its forming
  /// batch when the token is reached. Blocks for queue room (tokens are
  /// never shed).
  void Flush();

  /// \brief Blocks until all accepted work has been committed (appealed
  /// requests waiting in carryover do not block idleness — like the
  /// offline platform they ride into the next closing batch or day).
  Status WaitIdle();

  /// \brief Flushes + drains, then closes the platform day: realized
  /// utility, feedback triples, replica EndDay broadcast, store feedback.
  Result<sim::DayOutcome> CloseDay();

  /// \brief Stops intake, drains workers, joins all threads. Idempotent.
  /// If a day is still open, the forming residual batch is flushed and
  /// committed (bounded drain) instead of being dropped silently.
  void Shutdown();

  /// \brief Evaluates the health state machine: unhealthy on a fatal
  /// error or when every worker is stalled/crashed; degraded while any
  /// worker is unavailable or within two seconds of the latest fault
  /// incident; healthy otherwise. Thread-safe; also drives the
  /// serve.health_state gauge and the /healthz endpoint.
  obs::HealthReport Health() const;

  /// \brief Installs per-broker capacities into the broker store (the
  /// residual view the greedy degradation fallback consumes). Capacities
  /// persist across ResetDay; OpenDay overwrites them only when the lead
  /// replica is a LacbPolicy with its own estimates.
  void SetStoreCapacities(const std::vector<double>& capacities);

  /// \brief Cuts a checkpoint now if persistence is enabled and at least
  /// checkpoint_interval_batches live commits have applied since the last
  /// one. Call from a quiesce point (after WaitIdle — the checkpoint
  /// requires an idle service). No-op (OK) when persistence is disabled
  /// or the interval has not elapsed.
  Status MaybeCheckpoint();

  /// \brief Unconditionally cuts a checkpoint (requires an idle service
  /// and enabled persistence). The snapshot covers platform, store,
  /// every policy replica, the batcher carryover, and the day cursor; a
  /// fresh WAL is opened against the new sequence number.
  Status Checkpoint();

  /// \brief What Start() recovered from durable state.
  const RestoreInfo& restore_info() const { return restore_info_; }

  /// \brief Per-batch dispositions re-derived during the Start()-time WAL
  /// replay. The cluster coordinator diffs this against its ledger after a
  /// range adoption to decide which in-flight requests need a redrive.
  const std::vector<BatchDisposition>& replay_log() const {
    return replay_log_;
  }
  /// \brief (day, realized utility) of every day-close re-applied during
  /// WAL replay — a coordinator that lost a shard between CloseDay and its
  /// acknowledgment recovers the day's outcome from here instead of
  /// re-closing an already-closed day.
  const std::vector<std::pair<uint64_t, double>>& replayed_day_closes()
      const {
    return replayed_day_closes_;
  }
  /// \brief Ids of the appealed requests currently waiting in the
  /// carryover buffer (call at a quiesce point — after Start()'s restore
  /// or WaitIdle). The coordinator reconciles these as pending, not
  /// terminal.
  std::vector<int64_t> CarryoverRequestIds() const;

  /// \brief Serialized state of replica `index` / of the platform
  /// (diagnostic hooks: the recovery gate compares these byte-for-byte
  /// between a crashed-and-restored run and an uninterrupted one). Call
  /// only while the service is idle.
  Result<std::string> SerializeReplicaState(size_t index);
  Result<std::string> SerializePlatformState();

  const sim::Platform& platform() const { return *platform_; }
  const ShardedBrokerStore& store() const { return store_; }
  /// \brief Name of the served policy (replica 0).
  const std::string& policy_name() const { return policy_name_; }
  /// \brief Day-boundary (BeginDay/EndDay) policy compute of the last
  /// open/close cycle, seconds (replica 0's share).
  double day_boundary_seconds() const { return day_boundary_seconds_; }

  /// \brief Bound port of the exposition listener, or -1 when disabled
  /// (only meaningful after Start()).
  int exposition_port() const {
    return exposition_ != nullptr ? exposition_->port() : -1;
  }

  ServeStats Stats() const;

  /// \brief Applies one churn event to the live service (requires an open
  /// day). The scenario timeline applies automatically; this entry point
  /// is for external injection — the cluster coordinator routes churn to
  /// the owning shard through it. Events that would not change state
  /// (joining an active broker, dropping an inactive one) are no-ops.
  Status ApplyChurn(const scenario::ChurnEvent& event);

  /// \brief Refreshes the serve.store.residual_{min,median,gini} gauges
  /// from the broker store's current residual capacities. Instruments are
  /// registered lazily on first call (each /metrics scrape calls this), so
  /// a service that is never scraped registers nothing. Gauges report -1
  /// while no broker has a known capacity.
  void RefreshStoreGauges();

 private:
  AssignmentService(std::unique_ptr<sim::Platform> platform,
                    std::vector<std::unique_ptr<policy::AssignmentPolicy>>
                        replicas,
                    const ServeOptions& options);

  void BatcherLoop();
  void WorkerLoop(size_t worker_index);

  // The batch stages, in order (docs/serving.md, "Batch stages"). WAL
  // replay runs BuildBatchInput, ApplyCommitLocked and MakeDisposition too.
  struct BatchStage {  // what a solve reads; `input` points into the rest
    std::vector<double> workloads;
    std::vector<uint8_t> active_mask;  // empty unless churn is scripted
    la::Matrix utility;
    policy::BatchInput input;
  };
  Status ProcessBatch(size_t worker_index, const MicroBatch& batch);
  /// Snapshots the store's workloads, copies the churn mask under env_mu_
  /// (the caller must not hold it), steers inactive brokers to saturation,
  /// builds the utility matrix and draws the next per-day batch index.
  void BuildBatchInput(const std::vector<sim::Request>& requests,
                       BatchStage* stage);
  /// How a batch's assignment came about (journaled with the batch): the
  /// policy solve, or the greedy capacity-aware fallback after the solve
  /// overran its budget (measured: the solve ran, its result is discarded)
  /// or was skipped outright (an injected deadline abort).
  using SolveOutcome = persist::SolveOutcome;
  /// Solves within options_.solve_budget, degrading to the greedy
  /// capacity-aware fallback on an overrun.
  Result<SolveOutcome> SolveBatch(size_t worker_index,
                                  const policy::BatchInput& input,
                                  std::vector<int64_t>* assignment);
  /// Commits to the platform. On the token's first apply: journals the
  /// batch with its solve outcome and counts a live commit (only when
  /// `log_wal`: replay re-applies journaled batches), advances the churn
  /// timeline to the day's new commit count and charges the store.
  /// Requires env_mu_ held.
  Status ApplyCommitLocked(uint64_t token, uint32_t worker_index,
                           const std::vector<sim::Request>& requests,
                           const std::vector<int64_t>& assignment,
                           SolveOutcome solve, bool log_wal,
                           sim::ExternalCommitOutcome* outcome);
  /// The owner's batch, close-cause, size and attribution instruments.
  void RecordBatchClose(const MicroBatch& batch,
                        std::chrono::steady_clock::time_point picked_up,
                        double commit_seconds);
  /// Appeals to carryover, request counters, sink, trace flows and e2e
  /// latency of an owned batch — or the whole batch failed if uncommitted.
  void DisposeBatch(const MicroBatch& batch,
                    const std::vector<int64_t>& assignment, bool committed,
                    sim::ExternalCommitOutcome* commit);
  /// Appends one WAL record via `append(wal)` and counts it into the
  /// persist.wal_* counters. No-op without a WAL. Requires env_mu_ held.
  template <typename Append>
  Status JournalLocked(const Append& append);

  /// Day-boundary bodies shared by the public API and WAL replay. The
  /// public OpenDay/CloseDay log a WAL record (when persistence is on);
  /// replay re-applies the same transition without re-logging it.
  Status DoOpenDay(size_t day, bool log_wal);
  Result<sim::DayOutcome> DoCloseDay(bool log_wal);
  /// Runs one day-boundary step on every replica at once: replica 0 on the
  /// calling thread (its time is added to day_boundary_seconds_), each
  /// other replica on its own thread in the service's telemetry context.
  /// Returns the lowest-index replica's error.
  Status ForEachReplica(
      const std::function<Status(policy::AssignmentPolicy&)>& step);

  /// Start()-time warm restart: loads the newest valid checkpoint from
  /// checkpoint_dir (skipping corrupt ones), replays the WAL tail through
  /// the idempotent commit path, then cuts a fresh checkpoint so the next
  /// crash never replays a stale WAL. No-op when the directory holds no
  /// valid checkpoint (cold start).
  Status RestoreFromDurable();
  /// Applies a decoded checkpoint's sections to the environment;
  /// `*carryover` receives the snapshot's pending appeal carryover.
  Status ApplyCheckpoint(const persist::Checkpoint& ckpt,
                         std::vector<sim::Request>* carryover);
  /// Re-applies recovered WAL records (day transitions + batch commits).
  /// `*carryover` is replaced by the appeals of the last replayed batch
  /// (the live path drains carryover into every closing batch, so only
  /// the final batch's appeals are still pending at the crash).
  Status ReplayWalRecords(const std::vector<persist::WalRecord>& records,
                          std::vector<sim::Request>* carryover,
                          uint64_t* replayed);
  /// Serializes the full service state into checkpoint sections.
  Status BuildCheckpointSections(persist::Checkpoint* out);
  /// Checkpoint body; requires persistence enabled and an idle service.
  Status CheckpointLocked();

  /// Commit of one batch with bounded retries. On return `*owner` says
  /// whether this caller claimed the batch's terminal (exactly one twin
  /// of a re-driven batch does); when it did, `*committed` distinguishes
  /// a successful commit (`*outcome` valid) from retry exhaustion.
  Status CommitWithRetry(size_t worker_index, const MicroBatch& batch,
                         const std::vector<int64_t>& assignment,
                         SolveOutcome solve, bool* owner, bool* committed,
                         sim::ExternalCommitOutcome* outcome);
  /// Claims the terminal of `token`; true exactly once per token.
  /// Requires env_mu_ held.
  bool TryClaimTerminalLocked(uint64_t token);
  /// Terminal-drop of a batch that can no longer be processed (day closed
  /// or channel closed): the claiming twin counts every request into the
  /// kind's terminal bucket and retires the batch's queue units.
  enum class DropKind { kFailed, kDroppedAppeal };
  void DropBatchTerminal(const MicroBatch& batch, DropKind kind);
  /// Counts `requests` into the kind's terminal bucket and reports them to
  /// the disposition sink under `token` (0: not batch-scoped).
  void DropRequests(uint64_t token, const std::vector<sim::Request>& requests,
                    DropKind kind);
  /// Supervisor callbacks.
  void RedriveBatch(MicroBatch&& batch);
  void RestartWorker(size_t worker_index);
  /// Folds a fault incident into the health state machine.
  void RecordIncident(const char* kind);
  /// Bounded WaitIdle used by the shutdown residual flush.
  bool WaitIdleFor(std::chrono::milliseconds timeout);

  void RetireWork(int64_t units);
  void SetError(const Status& status);

  /// Records one admission event (admitted/shed) against every admission
  /// SLO; no-op when none are configured.
  void RecordAdmissionSlo(bool admitted);
  /// Records one committed request's end-to-end latency against every
  /// latency SLO (good = within the SLO's threshold).
  void RecordLatencySlo(double seconds);
  /// Folds the replica's last SolveStats into the serve.solver_*
  /// instruments and the ServeStats aggregate.
  void RecordSolveStats(const matching::SolveStats& stats);
  /// Mirrors the event recorder's cumulative drop count into the
  /// obs.timeline_dropped_events counter (called on scrape and shutdown).
  void SyncTimelineDrops();

  /// Applies one churn event under env_mu_ (idempotent: joining an active
  /// broker or dropping an inactive one is a no-op). Policy replicas are
  /// not touched — the cold capacity prior of a joiner goes into the
  /// broker store only, and replicas re-sync at the next BeginDay.
  Status ApplyChurnEventLocked(const scenario::ChurnEvent& event);
  /// Walks the churn timeline: skips events of days before `day` and
  /// applies those of `day` with batch_offset ≤ `max_offset` (0 at day
  /// open, the commit count mid-day, the maximum at close). Requires
  /// env_mu_ held.
  Status AdvanceChurnLocked(size_t day, uint64_t max_offset);

  // --- Immutable after construction ---
  ServeOptions options_;
  std::unique_ptr<sim::Platform> platform_;
  std::vector<std::unique_ptr<policy::AssignmentPolicy>> replicas_;
  std::string policy_name_;
  // One per worker (indexed like replicas_), reused by every batch that
  // worker solves, so the utility matrix and workload snapshot allocate
  // nothing per batch. Only the worker's own thread touches its stage.
  std::vector<BatchStage> worker_stages_;

  // --- Environment of record (serialized) ---
  std::mutex env_mu_;
  // Tokens whose batch reached its terminal (committed, failed, or
  // dropped). Guarded by env_mu_: the claim is atomic with the platform
  // commit, so exactly one twin of a re-driven batch does disposition and
  // retires the batch's in-system units. Kept for the service's lifetime
  // (tokens are globally unique) so a twin stalled across a day boundary
  // can never re-commit into a later day.
  std::unordered_set<uint64_t> terminal_tokens_;

  // --- Fault tolerance ---
  std::unique_ptr<FaultInjector> injector_;    // null: no plan installed
  std::unique_ptr<WorkerSupervisor> supervisor_;  // null until Start()

  // --- Durable state (null/zero when checkpoint_dir is empty) ---
  std::unique_ptr<persist::CheckpointManager> ckpt_mgr_;
  // Live WAL. Appends happen under env_mu_, atomically with the platform
  // commit they record; rotation (Checkpoint) requires an idle service.
  std::unique_ptr<persist::WalWriter> wal_;
  uint64_t next_ckpt_seq_ = 1;
  // Live (non-duplicate) platform commits applied this process lifetime;
  // feeds the checkpoint interval and the kill_after_commits trigger.
  std::atomic<uint64_t> commits_applied_{0};
  std::atomic<uint64_t> commits_since_ckpt_{0};
  std::atomic<uint64_t> commits_today_{0};  // resets at DoOpenDay

  // --- Scenario churn (timeline cursor guarded by env_mu_) ---
  size_t churn_cursor_ = 0;
  std::atomic<uint64_t> churn_events_{0};
  std::atomic<uint64_t> churn_rejected_{0};
  // Set once by the injected process-kill trigger; afterwards every batch
  // is failed terminally, modeling a dead process.
  std::atomic<bool> killed_{false};
  RestoreInfo restore_info_;
  // Replay reconciliation log (written only during Start()'s
  // single-threaded restore, read-only afterwards).
  std::vector<BatchDisposition> replay_log_;
  std::vector<std::pair<uint64_t, double>> replayed_day_closes_;

  // --- Concurrent state ---
  ShardedBrokerStore store_;
  std::unique_ptr<BoundedRequestQueue> queue_;
  std::unique_ptr<MicroBatcher> batcher_;

  // Closed-batch channel: batcher → workers.
  std::mutex channel_mu_;
  std::condition_variable channel_not_empty_;
  std::condition_variable channel_not_full_;
  std::deque<MicroBatch> channel_;
  size_t channel_capacity_ = 0;
  bool channel_closed_ = false;

  // In-system accounting: accepted-but-uncommitted queue items (requests +
  // flush tokens). Guarded by idle_mu_; CloseDay/WaitIdle wait on it.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  int64_t in_system_ = 0;

  // First worker/batcher error; checked at drain points (mutable: the
  // const health probe reads it).
  mutable std::mutex error_mu_;
  Status error_ = Status::OK();

  // Day state: written by the control thread at day boundaries, read by
  // workers mid-day (atomics keep unsynchronized producers race-free).
  std::atomic<bool> day_open_{false};
  std::atomic<size_t> current_day_{0};
  std::atomic<uint64_t> batch_seq_{0};  // per-day batch sequence
  double day_boundary_seconds_ = 0.0;

  // Threads. threads_mu_ serializes worker restarts (supervisor thread)
  // against Shutdown's joins; the supervisor is stopped before the joins,
  // so a restart can never race a join.
  bool started_ = false;
  std::atomic<bool> shutdown_{false};
  std::thread batcher_thread_;
  std::mutex threads_mu_;
  std::vector<std::thread> worker_threads_;

  // Health state machine inputs (fatal errors and worker availability are
  // read live; incidents decay after kHealthWindow).
  mutable std::mutex health_mu_;
  bool any_incident_ = false;
  uint64_t incident_count_ = 0;
  std::chrono::steady_clock::time_point last_incident_;

  // Telemetry (captured from the Start() caller's active context; the
  // recorder is null unless the caller installed one with
  // ScopedContextAdoption, and is forwarded to the batcher/worker threads).
  obs::MetricRegistry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::EventRecorder* recorder_ = nullptr;
  std::unique_ptr<obs::ExpositionServer> exposition_;
  obs::Counter* submitted_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* assigned_counter_ = nullptr;
  obs::Counter* unmatched_counter_ = nullptr;
  obs::Counter* appeal_counter_ = nullptr;
  obs::Counter* batch_counter_ = nullptr;
  obs::Counter* size_close_counter_ = nullptr;
  obs::Counter* deadline_close_counter_ = nullptr;
  obs::Counter* flush_close_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* degraded_counter_ = nullptr;
  obs::Counter* retry_counter_ = nullptr;
  obs::Counter* redrive_counter_ = nullptr;
  obs::Counter* stall_counter_ = nullptr;
  obs::Counter* crash_counter_ = nullptr;
  obs::Counter* restart_counter_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* carryover_gauge_ = nullptr;
  obs::Gauge* health_gauge_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* assign_latency_hist_ = nullptr;
  obs::Histogram* e2e_latency_hist_ = nullptr;
  // persist.* instruments (registered only when persistence is enabled).
  obs::Counter* persist_ckpt_counter_ = nullptr;
  obs::Counter* persist_ckpt_bytes_counter_ = nullptr;
  obs::Counter* persist_wal_records_counter_ = nullptr;
  obs::Counter* persist_wal_bytes_counter_ = nullptr;
  obs::Counter* persist_replayed_counter_ = nullptr;
  obs::Counter* persist_torn_counter_ = nullptr;
  obs::Counter* persist_load_fail_counter_ = nullptr;
  obs::Counter* persist_divergence_counter_ = nullptr;
  obs::Counter* persist_carryover_counter_ = nullptr;
  obs::Gauge* persist_last_seq_gauge_ = nullptr;
  obs::Histogram* persist_ckpt_seconds_hist_ = nullptr;

  // Stage-latency attribution (registered only when stage_attribution is
  // on; the histograms carry distributions, the gauges accumulate each
  // stage's critical-path seconds so breakdown fractions fall out of a
  // snapshot).
  obs::Histogram* stage_queue_wait_hist_ = nullptr;
  obs::Histogram* stage_channel_wait_hist_ = nullptr;
  obs::Histogram* stage_solve_hist_ = nullptr;
  obs::Histogram* stage_commit_hist_ = nullptr;
  obs::Histogram* stage_disposition_hist_ = nullptr;
  obs::Gauge* stage_queue_wait_total_ = nullptr;
  obs::Gauge* stage_channel_wait_total_ = nullptr;
  obs::Gauge* stage_solve_total_ = nullptr;
  obs::Gauge* stage_commit_total_ = nullptr;
  obs::Gauge* stage_disposition_total_ = nullptr;

  // Solver introspection (registered only when solver_introspection is on).
  obs::Counter* solver_solves_counter_ = nullptr;
  obs::Counter* solver_iterations_counter_ = nullptr;
  obs::Counter* solver_paths_counter_ = nullptr;
  obs::Counter* solver_duals_counter_ = nullptr;
  obs::Histogram* solver_rows_hist_ = nullptr;
  obs::Histogram* solver_seconds_hist_ = nullptr;
  obs::Gauge* solver_objective_total_ = nullptr;

  // Timeline-drop mirror (registered when a recorder is active).
  obs::Counter* timeline_dropped_counter_ = nullptr;
  std::atomic<uint64_t> timeline_drops_synced_{0};

  // SLO trackers and their exported gauges. The trackers are internally
  // synchronized; Health() (const) evaluates them through the pointers.
  struct SloRuntime {
    SloTarget target = SloTarget::kLatency;
    std::unique_ptr<obs::SloTracker> tracker;
    obs::Gauge* burn_short = nullptr;
    obs::Gauge* burn_long = nullptr;
    obs::Gauge* state = nullptr;
    obs::Gauge* budget = nullptr;
  };
  std::vector<SloRuntime> slos_;

  // Aggregate assign-time and solver introspection (ServeStats mirror;
  // obs instruments carry the distributions).
  mutable std::mutex stats_mu_;
  double assign_seconds_ = 0.0;
  matching::SolveStats solver_stats_;
};

}  // namespace lacb::serve

#endif  // LACB_SERVE_SERVICE_H_
