// WorkerSupervisor: heartbeat-based failure detection for the worker pool.
//
// Each worker reports a heartbeat when it picks up a batch (Park), during
// long operations (Beat), and when it finishes (Unpark). Park stores a
// *copy* of the in-flight batch in the worker's slot; the supervisor's
// poll thread compares heartbeats against the stall timeout and
//
//   - on a stalled worker (busy, heartbeat older than the timeout):
//     re-drives the parked batch copy back into the batch channel, once
//     per park. The wedged worker keeps running; when it eventually
//     finishes, the idempotent commit token makes its late commit a no-op,
//     so the batch is processed exactly once either way.
//   - on a crashed worker (the thread announced TryCrash and exited):
//     re-drives the parked batch first, then restarts the worker through
//     the restart callback — the redrive-before-restart order keeps the
//     replacement worker's batch order deterministic (the re-driven batch
//     is pushed to the *front* of the channel by the service).
//
// Detections are reported through the incident callback, which the service
// folds into its health state machine (healthy → degraded → unhealthy).
// A zero stall timeout disables supervision entirely (no poll thread).

#ifndef LACB_SERVE_SUPERVISOR_H_
#define LACB_SERVE_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "lacb/serve/micro_batcher.h"

namespace lacb::serve {

/// \brief Supervision knobs.
struct SupervisorOptions {
  /// A busy worker whose heartbeat is older than this is stalled; zero
  /// disables the supervisor.
  std::chrono::microseconds stall_timeout{0};
  /// Heartbeat poll cadence.
  std::chrono::microseconds poll_interval{500};
};

/// \brief Heartbeat monitor + batch re-driver over a fixed worker pool.
class WorkerSupervisor {
 public:
  /// Re-injects a parked batch copy into the processing pipeline.
  using RedriveFn = std::function<void(MicroBatch&&)>;
  /// Joins + respawns worker `index` after a crash.
  using RestartFn = std::function<void(size_t)>;
  /// Reports a detection ("stall" / "crash") for health accounting.
  using IncidentFn = std::function<void(const char* kind)>;

  WorkerSupervisor(size_t num_workers, const SupervisorOptions& options,
                   RedriveFn redrive, RestartFn restart, IncidentFn incident);
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// \brief Spawns the poll thread (no-op when stall_timeout is zero).
  void Start();
  /// \brief Stops and joins the poll thread. Idempotent. Must be called
  /// before the service joins its worker threads, so a restart can never
  /// race a join.
  void Stop();

  bool active() const { return options_.stall_timeout.count() > 0; }

  // --- Worker-side hooks ---

  /// \brief Worker `w` picked up `batch`: marks it busy and parks a copy.
  void Park(size_t w, const MicroBatch& batch);
  /// \brief Worker `w` finished its batch: clears the parked copy.
  void Unpark(size_t w);
  /// \brief Refreshes worker `w`'s heartbeat mid-batch.
  void Beat(size_t w);
  /// \brief Worker `w` asks to die from an injected crash. Returns true and
  /// marks the slot crashed only while the supervisor is still running (the
  /// poll loop — or the final sweep in Stop() — is guaranteed to re-drive
  /// the parked batch and restart the worker). Returns false once Stop()
  /// has begun: honoring a crash then would strand the parked batch with
  /// nobody left to re-drive it, so the worker must process the batch
  /// normally instead.
  bool TryCrash(size_t w);

  // --- Health inputs / diagnostics ---

  /// \brief Workers currently stalled or crashed-awaiting-restart.
  size_t WorkersUnavailable() const;
  size_t num_workers() const { return slots_.size(); }
  uint64_t redrives() const { return redrives_.load(std::memory_order_relaxed); }
  uint64_t restarts() const { return restarts_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    mutable std::mutex mu;
    bool busy = false;
    bool crashed = false;
    bool redriven = false;  // parked batch already re-driven this park
    std::optional<MicroBatch> parked;
    std::chrono::steady_clock::time_point heartbeat;
  };

  void PollLoop();
  void PollOnce();

  SupervisorOptions options_;
  RedriveFn redrive_;
  RestartFn restart_;
  IncidentFn incident_;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::atomic<uint64_t> redrives_{0};
  std::atomic<uint64_t> restarts_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread poll_thread_;
};

}  // namespace lacb::serve

#endif  // LACB_SERVE_SUPERVISOR_H_
