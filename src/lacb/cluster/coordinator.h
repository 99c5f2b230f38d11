// Fleet coordinator of the sharded serving cluster (docs/sharding.md).
//
// Owns the topology: a consistent-hash ring maps districts to broker
// ranges, every range is hosted by exactly one shard process (spawned via
// fork+execv of the lacb_shard binary), and all control + replication
// traffic flows over one framed loopback socket per shard.
//
// Robustness contract:
//   - Every submitted request is tracked in a fleet ledger until it
//     reaches exactly one terminal disposition (assigned / unmatched /
//     failed / dropped appeal) or is shed at admission; appealed requests
//     stay pending in a carryover set until a later batch disposes them.
//   - Each shard ships every WAL record and checkpoint image per range;
//     because a record ships through the same FIFO socket *before* its
//     batch's disposition, any disposition the coordinator has seen is
//     guaranteed durable in the replica. Committed batches survive any
//     shard death.
//   - A dead shard (socket EOF, or heartbeat deadline exceeded — e.g. a
//     SIGSTOP-wedged process) triggers failover: its ranges' replicas are
//     finalized, cloned into adoption envelopes, and adopted by the
//     surviving shard with the fewest ranges. The adopted service replays
//     the shipped WAL chain; its replay log is reconciled idempotently
//     against the ledger (already-terminal ids are ignored), and only the
//     still-pending remainder of each in-flight ticket is redriven.
//
// Fleet-wide, the conservation identity
//   submitted == assigned + unmatched + failed + dropped_appeals
// holds under any kill schedule — the headline gate in cluster_test.cc.

#ifndef LACB_CLUSTER_COORDINATOR_H_
#define LACB_CLUSTER_COORDINATOR_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lacb/cluster/hash_ring.h"
#include "lacb/cluster/protocol.h"
#include "lacb/cluster/replica_store.h"
#include "lacb/common/result.h"
#include "lacb/common/status.h"
#include "lacb/obs/exposition.h"
#include "lacb/obs/metrics.h"
#include "lacb/sim/dataset.h"

namespace lacb::cluster {

/// \brief Fleet configuration.
struct CoordinatorOptions {
  /// Path of the lacb_shard binary (tests get it from LACB_SHARD_BINARY).
  std::string shard_binary;
  /// Working directory: per-shard checkpoint dirs, the replica tree, and
  /// adoption envelopes live under it.
  std::string workdir;
  /// Fleet-wide dataset; each range serves ShardDatasetConfig(base, r, n).
  sim::DatasetConfig base_config;
  size_t num_shards = 2;
  /// Broker ranges (0 = one per shard). With one shard and one range the
  /// fleet is bit-identical to a single-process AssignmentService.
  size_t num_ranges = 0;
  /// Off: a shard death is a hard error instead of a failover (the
  /// bit-identity gate runs this way).
  bool failover_enabled = true;
  std::chrono::milliseconds heartbeat_period{100};
  /// A shard whose last frame is older than this is declared dead even if
  /// its socket is still open (catches wedged/stopped processes). Keep
  /// generous under sanitizers.
  std::chrono::milliseconds heartbeat_timeout{2000};
  /// Unacknowledged tickets per range before SubmitScheduledBatch blocks.
  size_t window = 4;
  /// Per-range persistence knobs forwarded to the shards.
  uint64_t checkpoint_interval_batches = 4;
  bool wal_fsync = false;
  uint64_t suite_seed = 55;
  uint64_t policy_index = 8;  ///< LACB-Opt in the suite order.
  /// Fleet exposition listener (/metrics + aggregated /healthz): -1
  /// disables, 0 ephemeral.
  int exposition_port = -1;
  /// Bring-up bound (spawn → hello → every range serving).
  std::chrono::milliseconds startup_timeout{60000};
  /// Bound on any single pump wait (window room, ticket acks, day close,
  /// state dumps, shutdown acks). Failovers run inside these waits, so the
  /// bound must cover heartbeat_timeout + adoption + replay.
  std::chrono::milliseconds op_timeout{120000};
};

/// \brief Fleet-wide ledger counters (safe to read any time; final after
/// Shutdown).
struct FleetStats {
  uint64_t submitted = 0;        ///< Requests routed into tickets.
  uint64_t shed = 0;             ///< Refused at shard admission.
  uint64_t assigned = 0;         ///< Terminal: committed to a broker.
  uint64_t unmatched = 0;        ///< Terminal: left unassigned.
  uint64_t failed = 0;           ///< Terminal: commit-exhausted/drained.
  uint64_t dropped_appeals = 0;  ///< Terminal: appeals dropped at day end.
  uint64_t pending = 0;          ///< In tickets or carryover right now.
  uint64_t redriven_requests = 0;
  uint64_t redriven_tickets = 0;
  uint64_t shard_deaths = 0;
  uint64_t failovers = 0;  ///< Range adoptions completed.
  uint64_t duplicate_terminals = 0;   ///< Live disposition for an id already
                                      ///< terminal (exactly-once violation).
  uint64_t reconcile_mismatches = 0;  ///< Replay reconciliation disagreed
                                      ///< with the ledger (invariant probe).
  uint64_t wal_records_shipped = 0;
  uint64_t checkpoints_shipped = 0;
  uint64_t heartbeats = 0;
  uint64_t heartbeat_timeouts = 0;
};

/// \brief The fleet coordinator. Public methods are the serial pump the
/// driver (test/bench) runs: Start → per day [OpenDay → SubmitScheduledBatch
/// loop → CloseDay] → Shutdown. Failover is handled internally on the
/// reader/monitor threads while the pump blocks on its windows.
class Coordinator {
 public:
  static Result<std::unique_ptr<Coordinator>> Create(CoordinatorOptions opts);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// \brief Spawns the shard processes, assigns every range, and blocks
  /// until the whole fleet is serving.
  Status Start();

  /// \brief Opens `day` on every range.
  Status OpenDay(size_t day);

  /// \brief Submits batch `batch_index` of the current day's schedule to
  /// every range as one ticket each, blocking for window room per range.
  Status SubmitScheduledBatch(size_t batch_index);

  /// \brief Waits until every outstanding ticket is acknowledged, closes
  /// the day on every range, and records the per-range day utilities.
  Status CloseDay();

  /// \brief Clean fleet shutdown: drains tickets, kShutdown handshake,
  /// reaps every child. Idempotent. The ledger must end with pending == 0.
  Status Shutdown();

  /// \brief Chaos hook: SIGKILLs (or SIGSTOPs, to exercise the heartbeat
  /// deadline instead of the socket EOF) shard `shard_id`.
  Status KillShard(uint64_t shard_id, bool sigstop);

  /// \brief Routes one scenario churn event to the shard owning `range`
  /// (the broker index is range-local — each range hosts its own roster
  /// slice). Control-plane only: the event mutates the owner's live day
  /// but is not WAL-journaled, so a failover between the event and its
  /// day close adopts the range without it (docs/scenarios.md).
  Status InjectChurn(uint64_t range, const scenario::ChurnEvent& event);

  /// \brief Batches scheduled per day in the fleet (max over ranges; short
  /// ranges simply skip indices past their schedule).
  size_t BatchesPerDay() const;
  size_t NumDays() const { return options_.base_config.num_days; }
  size_t num_ranges() const { return num_ranges_; }

  /// \brief Summed realized utility per closed day (index = day).
  std::vector<double> FleetDailyUtility() const;

  FleetStats Stats() const;

  /// \brief Aggregated fleet health (the /healthz body of the fleet
  /// exposition endpoint): unhealthy when a range has no serving owner,
  /// degraded while shards are dead/degraded or a failover is recent.
  obs::HealthReport Health() const;

  /// \brief Platform + lead-replica state of `range` (the bit-identity
  /// gate diffs these against a single-process run). Call while idle.
  Result<StateDump> FetchState(uint64_t range);

  const HashRing& ring() const { return ring_; }
  int exposition_port() const {
    return exposition_ != nullptr ? exposition_->port() : -1;
  }
  /// \brief Wall-clock stamp (seconds since epoch) of the latest completed
  /// failover, or 0 when none happened.
  double last_failover_unix_seconds() const;

 private:
  explicit Coordinator(CoordinatorOptions opts);

  static constexpr uint64_t kInCarryover = ~0ull;

  struct Shard {
    uint64_t id = 0;
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    bool shutdown_acked = false;
    bool reaped = false;
    uint64_t health_state = 0;
    std::chrono::steady_clock::time_point last_frame{};
    std::unique_ptr<std::mutex> send_mu;  // orders writes to fd
    std::thread reader;
  };

  struct Ticket {
    std::vector<sim::Request> requests;
    std::set<int64_t> pending;  // ids not yet disposed/shed/appealed
    bool done = false;
  };

  struct RangeState {
    uint64_t range = 0;
    sim::DatasetConfig config;
    std::vector<std::vector<std::vector<sim::Request>>> schedule;
    uint64_t owner = 0;
    bool serving = false;   // kRangeReady seen for the current generation
    uint64_t generation = 0;
    std::map<uint64_t, Ticket> tickets;       // outstanding, by ticket id
    std::map<int64_t, uint64_t> pending_where;  // id -> ticket | kInCarryover
    std::set<int64_t> carryover;
    std::map<uint64_t, double> day_utility;   // closed day -> utility
    bool day_close_sent = false;              // close in flight this day
    StateDump state_dump;
    bool state_dump_ready = false;
  };

  // --- process + socket plumbing ---
  Status SpawnShard(uint64_t shard_id);
  Status SendToShard(uint64_t shard_id, MessageType type,
                     const std::string& payload);
  void ReaderLoop(uint64_t shard_id);
  void MonitorLoop();
  void ReapLocked(Shard* shard);

  // --- frame handlers (mu_ held) ---

  /// A frame to send once mu_ is released (holding mu_ across a socket
  /// write could wedge the whole fleet behind one stopped shard).
  struct Outbound {
    uint64_t shard = 0;
    MessageType type = MessageType::kHeartbeat;
    std::string payload;
  };
  /// Deferred work a frame handler computed under mu_. A reconciled
  /// adoption is finalized (range marked serving) only after its redrive
  /// frames went out, so the pump can never interleave ahead of them.
  struct FrameEffects {
    std::vector<Outbound> sends;
    bool finalize_adoption = false;
    uint64_t adopted_range = 0;
    uint64_t adopted_generation = 0;
  };

  void HandleFrameLocked(uint64_t shard_id, uint8_t type,
                         const std::string& payload, FrameEffects* fx);
  void ApplyDispositionLocked(RangeState* range,
                              const serve::BatchDisposition& d, bool live);
  void TerminalizeLocked(RangeState* range, int64_t id, uint64_t* counter,
                         bool live);
  void ReconcileAdoptionLocked(RangeState* range, const RangeReady& ready,
                               FrameEffects* fx);

  // --- failover ---
  void OnShardDown(uint64_t shard_id, const std::string& why);
  AssignRange BuildAssignment(const RangeState& range,
                              const std::string& checkpoint_dir) const;

  // --- helpers ---
  uint64_t PendingCountLocked() const;
  size_t OutstandingTicketsLocked(const RangeState& range) const;
  Status WaitLocked(std::unique_lock<std::mutex>* lock,
                    const std::function<bool()>& done, const char* what);
  void RegisterMetrics();
  /// Mirrors stats_ deltas into the cluster.* instruments (mu_ held).
  void SyncMetricsLocked();

  CoordinatorOptions options_;
  HashRing ring_;
  size_t num_ranges_ = 0;
  std::unique_ptr<ReplicaStore> replica_;

  int listen_fd_ = -1;
  int listen_port_ = 0;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::map<uint64_t, Shard> shards_;
  std::map<uint64_t, RangeState> ranges_;
  FleetStats stats_;
  FleetStats synced_;  // last values mirrored into the obs instruments
  uint64_t next_ticket_ = 1;
  size_t current_day_ = 0;
  bool day_open_ = false;
  bool started_ = false;
  bool shutdown_ = false;
  Status fatal_ = Status::OK();
  std::chrono::steady_clock::time_point last_failover_{};
  double last_failover_unix_ = 0.0;

  std::atomic<bool> stopping_{false};
  std::thread monitor_;

  obs::MetricRegistry* registry_ = nullptr;
  std::unique_ptr<obs::ExpositionServer> exposition_;
  obs::Counter* routed_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* assigned_counter_ = nullptr;
  obs::Counter* unmatched_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* redriven_counter_ = nullptr;
  obs::Counter* deaths_counter_ = nullptr;
  obs::Counter* failovers_counter_ = nullptr;
  obs::Counter* heartbeats_counter_ = nullptr;
  obs::Counter* hb_timeout_counter_ = nullptr;
  obs::Counter* wal_shipped_counter_ = nullptr;
  obs::Counter* wal_bytes_counter_ = nullptr;
  obs::Counter* ckpt_shipped_counter_ = nullptr;
  obs::Counter* duplicate_counter_ = nullptr;
  obs::Gauge* shards_alive_gauge_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
};

}  // namespace lacb::cluster

#endif  // LACB_CLUSTER_COORDINATOR_H_
