#include "lacb/serve/supervisor.h"

#include <utility>

namespace lacb::serve {

WorkerSupervisor::WorkerSupervisor(size_t num_workers,
                                   const SupervisorOptions& options,
                                   RedriveFn redrive, RestartFn restart,
                                   IncidentFn incident)
    : options_(options),
      redrive_(std::move(redrive)),
      restart_(std::move(restart)),
      incident_(std::move(incident)) {
  slots_.reserve(num_workers);
  auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < num_workers; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->heartbeat = now;
  }
}

WorkerSupervisor::~WorkerSupervisor() { Stop(); }

void WorkerSupervisor::Start() {
  if (!active() || started_) return;
  started_ = true;
  poll_thread_ = std::thread([this] { PollLoop(); });
}

void WorkerSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (poll_thread_.joinable()) {
    poll_thread_.join();
    // Final sweep: a worker whose TryCrash won the race against stopping_
    // has a crashed slot that no future poll will see. Sweep once after
    // the join so its parked batch is re-driven and the worker restarted —
    // otherwise the batch (and any appeals it carries) would leak out of
    // the request ledger.
    PollOnce();
  }
}

void WorkerSupervisor::Park(size_t w, const MicroBatch& batch) {
  Slot& slot = *slots_[w];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.busy = true;
  slot.crashed = false;
  slot.redriven = false;
  slot.parked = batch;  // copy — the worker keeps processing its own
  slot.heartbeat = std::chrono::steady_clock::now();
}

void WorkerSupervisor::Unpark(size_t w) {
  Slot& slot = *slots_[w];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.busy = false;
  slot.redriven = false;
  slot.parked.reset();
  slot.heartbeat = std::chrono::steady_clock::now();
}

void WorkerSupervisor::Beat(size_t w) {
  Slot& slot = *slots_[w];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.heartbeat = std::chrono::steady_clock::now();
}

bool WorkerSupervisor::TryCrash(size_t w) {
  // stop_mu_ makes the crash decision atomic with Stop(): either the slot
  // is marked before stopping_ is set (and the final sweep in Stop() will
  // handle it), or stopping_ is already set and the crash is refused.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopping_) return false;
  Slot& slot = *slots_[w];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.crashed = true;
  return true;
}

size_t WorkerSupervisor::WorkersUnavailable() const {
  if (!active()) return 0;
  size_t unavailable = 0;
  auto now = std::chrono::steady_clock::now();
  for (const auto& slot_ptr : slots_) {
    const Slot& slot = *slot_ptr;
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.crashed ||
        (slot.busy && now - slot.heartbeat > options_.stall_timeout)) {
      ++unavailable;
    }
  }
  return unavailable;
}

void WorkerSupervisor::PollLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock, options_.poll_interval, [&] { return stopping_; });
      if (stopping_) return;
    }
    PollOnce();
  }
}

void WorkerSupervisor::PollOnce() {
  auto now = std::chrono::steady_clock::now();
  for (size_t w = 0; w < slots_.size(); ++w) {
    Slot& slot = *slots_[w];
    bool crashed = false;
    bool stalled = false;
    std::optional<MicroBatch> to_redrive;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.crashed) {
        crashed = true;
        if (slot.parked.has_value() && !slot.redriven) {
          to_redrive = std::move(slot.parked);
        }
        // Reset the slot for the replacement worker before it spawns.
        slot.crashed = false;
        slot.busy = false;
        slot.redriven = false;
        slot.parked.reset();
        slot.heartbeat = now;
      } else if (slot.busy && !slot.redriven &&
                 now - slot.heartbeat > options_.stall_timeout) {
        stalled = true;
        if (slot.parked.has_value()) {
          to_redrive = *slot.parked;  // copy; the wedged worker keeps its own
        }
        // One redrive per park: the wedged worker either finishes (Unpark
        // rearms) or the redriven twin reaches the terminal first.
        slot.redriven = true;
      }
    }
    // Callbacks run with no slot lock held: redrive takes the channel
    // lock, restart joins + respawns the worker thread.
    if (to_redrive.has_value()) {
      redrives_.fetch_add(1, std::memory_order_relaxed);
      redrive_(std::move(*to_redrive));
    }
    if (crashed) {
      if (incident_) incident_("crash");
      restarts_.fetch_add(1, std::memory_order_relaxed);
      restart_(w);
    } else if (stalled) {
      if (incident_) incident_("stall");
    }
  }
}

}  // namespace lacb::serve
