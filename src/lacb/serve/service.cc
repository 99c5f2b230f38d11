#include "lacb/serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>

#include "lacb/common/rng.h"
#include "lacb/common/stopwatch.h"
#include "lacb/matching/assignment.h"
#include "lacb/obs/context.h"
#include "lacb/persist/serializers.h"
#include "lacb/policy/capacity_stage.h"

namespace lacb::serve {

namespace {

// Seed of the deterministic commit-retry jitter.
constexpr uint64_t kRetryJitterSeed = 2027;
// Health reports degraded for this long after the latest fault incident
// (stall, crash, retry, degraded batch).
constexpr std::chrono::milliseconds kHealthWindow{2000};
// Checkpoints (and their WALs) retained before pruning.
constexpr size_t kCheckpointRetain = 3;
// Lock stripes of the broker store.
constexpr size_t kStoreStripes = 16;

// Flow identity of a request across the serve pipeline. Request ids are
// non-negative and a flow id of 0 means "no flow", so shift by one.
uint64_t RequestFlowId(int64_t request_id) {
  return static_cast<uint64_t>(request_id) + 1;
}

// The per-request fates of one batch: ids in `appealed` are pending, the
// rest are assigned or unmatched by `assignment` (an id past its end is
// unmatched). CommitExternalBatch reports appeals in batch order, so one
// forward walk matches them. A batch that never committed passes an empty
// assignment and no appeals, and its caller relabels `unmatched`.
BatchDisposition MakeDisposition(uint64_t token, uint64_t day,
                                 const std::vector<sim::Request>& requests,
                                 const std::vector<int64_t>& assignment,
                                 const std::vector<sim::Request>& appealed) {
  BatchDisposition d;
  d.token = token;
  d.day = day;
  size_t next_appeal = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const int64_t id = requests[i].id;
    if (next_appeal < appealed.size() && appealed[next_appeal].id == id) {
      d.appealed.push_back(id);
      ++next_appeal;
    } else if (i < assignment.size() && assignment[i] >= 0) {
      d.assigned.push_back(id);
    } else {
      d.unmatched.push_back(id);
    }
  }
  return d;
}

// Voids every edge into a broker that `active_mask` marks inactive (an
// empty mask voids nothing) and returns how many it voided.
size_t SanitizeAssignment(const std::vector<uint8_t>& active_mask,
                          std::vector<int64_t>* assignment) {
  size_t voided = 0;
  if (active_mask.empty()) return voided;
  for (int64_t& a : *assignment) {
    if (a >= 0 && static_cast<size_t>(a) < active_mask.size() &&
        active_mask[static_cast<size_t>(a)] == 0) {
      a = matching::kUnmatched;
      ++voided;
    }
  }
  return voided;
}

void WriteBrokerSlots(persist::ByteWriter* w,
                      const std::vector<BrokerSlot>& slots) {
  w->U64(slots.size());
  for (const BrokerSlot& s : slots) {
    w->F64(s.workload);
    w->F64(s.capacity);
    w->F64(s.day_utility);
    w->U64(s.served_total);
    w->F64(s.last_workload);
    w->F64(s.last_signup_rate);
  }
}

Result<std::vector<BrokerSlot>> ReadBrokerSlots(persist::ByteReader* r) {
  LACB_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  std::vector<BrokerSlot> slots;
  slots.reserve(std::min<uint64_t>(n, 4096));
  for (uint64_t i = 0; i < n; ++i) {
    BrokerSlot s;
    LACB_ASSIGN_OR_RETURN(s.workload, r->F64());
    LACB_ASSIGN_OR_RETURN(s.capacity, r->F64());
    LACB_ASSIGN_OR_RETURN(s.day_utility, r->F64());
    LACB_ASSIGN_OR_RETURN(s.served_total, r->U64());
    LACB_ASSIGN_OR_RETURN(s.last_workload, r->F64());
    LACB_ASSIGN_OR_RETURN(s.last_signup_rate, r->F64());
    slots.push_back(s);
  }
  return slots;
}

// Reader over section `name` of `ckpt`; InvalidArgument when it is absent.
Result<persist::ByteReader> SectionReader(const persist::Checkpoint& ckpt,
                                          const std::string& name) {
  const persist::CheckpointSection* section = ckpt.Find(name);
  if (section == nullptr) {
    return Status::InvalidArgument("checkpoint missing section " + name);
  }
  return persist::ByteReader(section->payload);
}

}  // namespace

Result<std::unique_ptr<AssignmentService>> AssignmentService::Create(
    const sim::DatasetConfig& config, const policy::PolicyFactory& factory,
    const ServeOptions& options) {
  if (!factory) {
    return Status::InvalidArgument("AssignmentService requires a factory");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument("AssignmentService requires >= 1 worker");
  }
  LACB_ASSIGN_OR_RETURN(sim::Platform platform, sim::Platform::Create(config));
  if (options.scenario != nullptr) {
    const scenario::CompiledScenario& sc = *options.scenario;
    if (sc.spec().two_sided.enabled) {
      return Status::InvalidArgument(
          "two-sided scenario mode is offline-only (RunPolicyScenario); the "
          "serve path commits one edge per request");
    }
    if (sc.HasArrivalShaping()) {
      LACB_ASSIGN_OR_RETURN(auto shaped,
                            sc.ShapeSchedule(platform.all_requests()));
      LACB_RETURN_NOT_OK(platform.SetRequestSchedule(std::move(shaped)));
    }
    for (size_t b : sc.initially_inactive()) {
      LACB_RETURN_NOT_OK(platform.SetBrokerActive(b, false));
    }
  }
  std::vector<std::unique_ptr<policy::AssignmentPolicy>> replicas;
  replicas.reserve(options.num_workers);
  for (size_t i = 0; i < options.num_workers; ++i) {
    LACB_ASSIGN_OR_RETURN(std::unique_ptr<policy::AssignmentPolicy> replica,
                          factory());
    if (replica == nullptr) {
      return Status::InvalidArgument("policy factory returned null");
    }
    // Capacity estimation runs once per service: every later replica
    // assigns under the lead replica's stage instead of training its own.
    if (!replicas.empty()) replica->ShareCapacityStageOf(*replicas.front());
    LACB_RETURN_NOT_OK(replica->Initialize(platform));
    replicas.push_back(std::move(replica));
  }
  return std::unique_ptr<AssignmentService>(new AssignmentService(
      std::make_unique<sim::Platform>(std::move(platform)),
      std::move(replicas), options));
}

AssignmentService::AssignmentService(
    std::unique_ptr<sim::Platform> platform,
    std::vector<std::unique_ptr<policy::AssignmentPolicy>> replicas,
    const ServeOptions& options)
    : options_(options),
      platform_(std::move(platform)),
      replicas_(std::move(replicas)),
      policy_name_(replicas_.front()->name()),
      worker_stages_(replicas_.size()),
      store_(platform_->num_brokers(), kStoreStripes) {
  channel_capacity_ = options_.batch_channel_capacity != 0
                          ? options_.batch_channel_capacity
                          : 2 * options_.num_workers;
  if (options_.fault_plan.enabled()) {
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan);
  }
}

AssignmentService::~AssignmentService() { Shutdown(); }

Status AssignmentService::Start() {
  if (started_) return Status::FailedPrecondition("service already started");
  registry_ = &obs::ActiveRegistry();
  tracer_ = &obs::ActiveTracer();
  recorder_ = obs::ActiveEventRecorder();
  submitted_counter_ = &registry_->GetCounter(
      "serve.submitted", "Requests accepted by the ingestion queue.");
  shed_counter_ = &registry_->GetCounter(
      "serve.shed_requests",
      "Requests refused at admission (queue full or no open day).");
  assigned_counter_ = &registry_->GetCounter(
      "serve.assigned_requests", "Requests committed to a broker.");
  unmatched_counter_ = &registry_->GetCounter(
      "serve.unmatched_requests",
      "Requests the policy left unassigned in a committed batch.");
  appeal_counter_ = &registry_->GetCounter(
      "serve.appeals_requeued", "Appeals re-queued into later batches.");
  batch_counter_ =
      &registry_->GetCounter("serve.batches", "Batches committed.");
  size_close_counter_ = &registry_->GetCounter("serve.batch_close.size");
  deadline_close_counter_ =
      &registry_->GetCounter("serve.batch_close.deadline");
  flush_close_counter_ = &registry_->GetCounter("serve.batch_close.flush");
  failed_counter_ = &registry_->GetCounter(
      "serve.failed_requests",
      "Requests in batches whose commit retries were exhausted.");
  dropped_counter_ = &registry_->GetCounter("serve.dropped_appeals");
  degraded_counter_ = &registry_->GetCounter(
      "serve.degraded_batches",
      "Batches solved by the greedy capacity-aware fallback.");
  retry_counter_ = &registry_->GetCounter("serve.commit_retries");
  redrive_counter_ = &registry_->GetCounter("serve.redriven_batches");
  stall_counter_ = &registry_->GetCounter("serve.worker_stalls");
  crash_counter_ = &registry_->GetCounter("serve.worker_crashes");
  restart_counter_ = &registry_->GetCounter("serve.worker_restarts");
  inflight_gauge_ = &registry_->GetGauge("serve.inflight_batches");
  carryover_gauge_ = &registry_->GetGauge("serve.carryover_depth");
  health_gauge_ = &registry_->GetGauge(
      "serve.health_state", "0 = healthy, 1 = degraded, 2 = unhealthy.");
  batch_size_hist_ = &registry_->GetHistogram(
      "serve.batch_size",
      std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  assign_latency_hist_ =
      &registry_->GetHistogram("serve.batch_assign_seconds");
  e2e_latency_hist_ = &registry_->GetHistogram("serve.e2e_seconds");

  if (options_.stage_attribution) {
    stage_queue_wait_hist_ =
        &registry_->GetHistogram("serve.stage.queue_wait_seconds");
    stage_channel_wait_hist_ =
        &registry_->GetHistogram("serve.stage.channel_wait_seconds");
    stage_solve_hist_ = &registry_->GetHistogram("serve.stage.solve_seconds");
    stage_commit_hist_ =
        &registry_->GetHistogram("serve.stage.commit_seconds");
    stage_disposition_hist_ =
        &registry_->GetHistogram("serve.stage.disposition_seconds");
    stage_queue_wait_total_ =
        &registry_->GetGauge("serve.stage.queue_wait_total_seconds");
    stage_channel_wait_total_ =
        &registry_->GetGauge("serve.stage.channel_wait_total_seconds");
    stage_solve_total_ =
        &registry_->GetGauge("serve.stage.solve_total_seconds");
    stage_commit_total_ =
        &registry_->GetGauge("serve.stage.commit_total_seconds");
    stage_disposition_total_ =
        &registry_->GetGauge("serve.stage.disposition_total_seconds");
  }
  if (options_.solver_introspection) {
    solver_solves_counter_ = &registry_->GetCounter("serve.solver.solves");
    solver_iterations_counter_ =
        &registry_->GetCounter("serve.solver.iterations");
    solver_paths_counter_ =
        &registry_->GetCounter("serve.solver.augmenting_paths");
    solver_duals_counter_ =
        &registry_->GetCounter("serve.solver.dual_updates");
    solver_rows_hist_ = &registry_->GetHistogram(
        "serve.solver.problem_rows",
        std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    solver_seconds_hist_ =
        &registry_->GetHistogram("serve.solver.solve_seconds");
    solver_objective_total_ =
        &registry_->GetGauge("serve.solver.objective_total");
  }
  if (recorder_ != nullptr) {
    timeline_dropped_counter_ =
        &registry_->GetCounter("obs.timeline_dropped_events");
  }
  for (const ServedSlo& slo : options_.slos) {
    SloRuntime rt;
    rt.target = slo.target;
    LACB_ASSIGN_OR_RETURN(rt.tracker, obs::SloTracker::Create(slo.spec));
    const std::string prefix = "slo." + slo.spec.name;
    rt.burn_short = &registry_->GetGauge(prefix + ".burn_rate_short");
    rt.burn_long = &registry_->GetGauge(prefix + ".burn_rate_long");
    rt.state = &registry_->GetGauge(prefix + ".state");
    rt.budget = &registry_->GetGauge(prefix + ".budget_remaining");
    rt.budget->Set(1.0);  // untouched budget until the first event
    slos_.push_back(std::move(rt));
  }

  queue_ = std::make_unique<BoundedRequestQueue>(
      options_.queue_capacity,
      &registry_->GetGauge("serve.queue_depth",
                           "Requests waiting in the ingestion queue."));
  MicroBatcherOptions batch_opts;
  batch_opts.max_batch_size = options_.max_batch_size;
  batch_opts.max_batch_delay = options_.max_batch_delay;
  batcher_ = std::make_unique<MicroBatcher>(queue_.get(), batch_opts,
                                            [this] { RetireWork(1); });

  SupervisorOptions sup_opts;
  sup_opts.stall_timeout = options_.stall_timeout;
  sup_opts.poll_interval = options_.supervisor_poll;
  supervisor_ = std::make_unique<WorkerSupervisor>(
      options_.num_workers, sup_opts,
      [this](MicroBatch&& batch) { RedriveBatch(std::move(batch)); },
      [this](size_t worker) { RestartWorker(worker); },
      [this](const char* kind) {
        if (std::string_view(kind) == "crash") {
          crash_counter_->Increment();
        } else {
          stall_counter_->Increment();
        }
        RecordIncident(kind);
      });

  if (options_.exposition_port >= 0) {
    obs::ExpositionOptions expo;
    expo.port = options_.exposition_port;
    expo.health_fn = [this] { return Health(); };
    LACB_ASSIGN_OR_RETURN(
        exposition_,
        obs::ExpositionServer::Start(
            [this] {
              // Refresh scrape-time-only derived state: the timeline-drop
              // mirror, the SLO burn gauges (via the health probe), and the
              // store residual gauges.
              SyncTimelineDrops();
              Health();
              RefreshStoreGauges();
              return registry_->Snapshot();
            },
            expo));
  }

  if (!options_.checkpoint_dir.empty()) {
    persist_ckpt_counter_ = &registry_->GetCounter("persist.checkpoints");
    persist_ckpt_bytes_counter_ =
        &registry_->GetCounter("persist.checkpoint_bytes");
    persist_wal_records_counter_ =
        &registry_->GetCounter("persist.wal_records");
    persist_wal_bytes_counter_ = &registry_->GetCounter("persist.wal_bytes");
    persist_replayed_counter_ =
        &registry_->GetCounter("persist.restore_replayed_batches");
    persist_torn_counter_ =
        &registry_->GetCounter("persist.torn_tail_truncations");
    persist_load_fail_counter_ =
        &registry_->GetCounter("persist.checkpoint_load_failures");
    persist_divergence_counter_ =
        &registry_->GetCounter("persist.replay_divergence");
    persist_carryover_counter_ =
        &registry_->GetCounter("persist.restore_carryover_requests");
    persist_last_seq_gauge_ =
        &registry_->GetGauge("persist.last_checkpoint_seq");
    persist_ckpt_seconds_hist_ =
        &registry_->GetHistogram("persist.checkpoint_seconds");
    ckpt_mgr_ = std::make_unique<persist::CheckpointManager>(
        options_.checkpoint_dir, kCheckpointRetain, options_.wal_fsync);
    // Warm restart happens before any thread spawns: the batcher's token
    // counter and carryover are still single-owner here.
    LACB_RETURN_NOT_OK(RestoreFromDurable());
  }

  started_ = true;
  supervisor_->Start();
  batcher_thread_ = std::thread([this] { BatcherLoop(); });
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    worker_threads_.reserve(options_.num_workers);
    for (size_t i = 0; i < options_.num_workers; ++i) {
      worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
  return Status::OK();
}

Status AssignmentService::OpenDay(size_t day) {
  if (!started_) return Status::FailedPrecondition("service not started");
  if (day_open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("previous day is still open");
  }
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (in_system_ > 0) {
      return Status::FailedPrecondition("service must be idle to open a day");
    }
  }
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    LACB_RETURN_NOT_OK(error_);
  }
  return DoOpenDay(day, /*log_wal=*/true);
}

template <typename Append>
Status AssignmentService::JournalLocked(const Append& append) {
  if (wal_ == nullptr) return Status::OK();
  const uint64_t before = wal_->bytes_written();
  LACB_RETURN_NOT_OK(append(*wal_));
  persist_wal_records_counter_->Increment();
  persist_wal_bytes_counter_->Increment(wal_->bytes_written() - before);
  return Status::OK();
}

Status AssignmentService::DoOpenDay(size_t day, bool log_wal) {
  {
    std::lock_guard<std::mutex> lock(env_mu_);
    LACB_RETURN_NOT_OK(platform_->StartDayExternal(day));
    if (log_wal) {
      LACB_RETURN_NOT_OK(JournalLocked(
          [day](persist::WalWriter& wal) { return wal.AppendDayOpen(day); }));
    }
  }
  store_.ResetDay();
  day_boundary_seconds_ = 0.0;
  // The lead replica estimates today's capacities; the others only read
  // them, so their steps cost next to nothing.
  Stopwatch boundary;
  for (auto& replica : replicas_) {
    LACB_RETURN_NOT_OK(replica->BeginDay(*platform_, day));
  }
  day_boundary_seconds_ += boundary.ElapsedSeconds();
  // Publish the capacity estimates so the store's residual view is live
  // for capacity-aware consumers.
  if (const policy::CapacityStage* stage = replicas_.front()->capacity_stage();
      stage != nullptr && !stage->capacities().empty()) {
    store_.SetCapacities(stage->capacities());
    registry_
        ->GetGauge("serve.capacity_mae",
                   "Mean |capacity estimate - latent true capacity| over "
                   "the roster, set at each day open.")
        .Set(stage->MeanAbsoluteError(*platform_));
  }
  if (options_.scenario != nullptr && options_.scenario->HasChurn()) {
    std::lock_guard<std::mutex> lock(env_mu_);
    // Day-open events (batch_offset 0) land before the first batch.
    LACB_RETURN_NOT_OK(AdvanceChurnLocked(day, 0));
    // Sync the store to the platform's mask: the capacity stage published
    // estimates for the whole roster above, including brokers
    // that are currently churned away (initial mask or restored state).
    if (platform_->AnyBrokerInactive()) {
      for (size_t b = 0; b < platform_->num_brokers(); ++b) {
        if (!platform_->BrokerActive(b)) store_.RetireBroker(b);
      }
    }
  }
  current_day_.store(day, std::memory_order_release);
  batch_seq_.store(0, std::memory_order_release);
  commits_today_.store(0, std::memory_order_release);
  day_open_.store(true, std::memory_order_release);
  return Status::OK();
}

bool AssignmentService::Submit(const sim::Request& request) {
  if (!started_) return false;
  if (!day_open_.load(std::memory_order_acquire)) {
    shed_counter_->Increment();
    RecordAdmissionSlo(false);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++in_system_;
  }
  if (!queue_->TryPush(QueueItem::Of(request))) {
    RetireWork(1);
    shed_counter_->Increment();
    RecordAdmissionSlo(false);
    if (recorder_ != nullptr) recorder_->Instant("serve.shed");
    return false;
  }
  submitted_counter_->Increment();
  RecordAdmissionSlo(true);
  if (recorder_ != nullptr) {
    // The flow arrow starts at the producer's enqueue slice and is picked
    // up by the batcher and worker threads downstream.
    recorder_->Begin("serve.enqueue");
    recorder_->FlowBegin("serve.request", RequestFlowId(request.id));
    recorder_->End("serve.enqueue");
  }
  return true;
}

void AssignmentService::Flush() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++in_system_;
  }
  if (!queue_->PushBlocking(QueueItem::Flush())) {
    RetireWork(1);  // queue already closed (shutdown)
  }
}

Status AssignmentService::WaitIdle() {
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] {
      if (in_system_ <= 0) return true;
      std::lock_guard<std::mutex> elock(error_mu_);
      return !error_.ok();
    });
  }
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

bool AssignmentService::WaitIdleFor(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(idle_mu_);
  return idle_cv_.wait_for(lock, timeout, [&] {
    if (in_system_ <= 0) return true;
    std::lock_guard<std::mutex> elock(error_mu_);
    return !error_.ok();
  });
}

Result<sim::DayOutcome> AssignmentService::CloseDay() {
  if (!day_open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("no day is open");
  }
  Flush();
  LACB_RETURN_NOT_OK(WaitIdle());
  LACB_ASSIGN_OR_RETURN(sim::DayOutcome outcome,
                        DoCloseDay(/*log_wal=*/true));
  // Day-boundary checkpoint: the WAL between days stays one record deep
  // (the close itself), so a crash at a day boundary restores instantly.
  if (ckpt_mgr_ != nullptr && !killed_.load(std::memory_order_acquire)) {
    LACB_RETURN_NOT_OK(CheckpointLocked());
  }
  return outcome;
}

Result<sim::DayOutcome> AssignmentService::DoCloseDay(bool log_wal) {
  sim::DayOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(env_mu_);
    const size_t day = current_day_.load(std::memory_order_acquire);
    // Day-tail churn (batch_offset at/after the day's last commit) still
    // lands inside the open day, so fail-retirement can void the broker's
    // in-flight edges before they realize utility.
    LACB_RETURN_NOT_OK(
        AdvanceChurnLocked(day, std::numeric_limits<uint64_t>::max()));
    if (log_wal) {
      // Redo logging: the close is journaled *before* it applies, so a
      // crash between the append and EndDay replays the close instead of
      // losing the day's feedback broadcast.
      LACB_RETURN_NOT_OK(JournalLocked(
          [day](persist::WalWriter& wal) { return wal.AppendDayClose(day); }));
    }
    LACB_ASSIGN_OR_RETURN(outcome, platform_->EndDay());
  }
  store_.ApplyDayFeedback(outcome);
  // The lead replica trains the capacity stage before the others read it.
  Stopwatch boundary;
  for (auto& replica : replicas_) {
    LACB_RETURN_NOT_OK(replica->EndDay(outcome));
  }
  day_boundary_seconds_ += boundary.ElapsedSeconds();
  day_open_.store(false, std::memory_order_release);
  return outcome;
}

Status AssignmentService::ApplyChurn(const scenario::ChurnEvent& event) {
  if (!day_open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("churn requires an open day");
  }
  std::lock_guard<std::mutex> lock(env_mu_);
  return ApplyChurnEventLocked(event);
}

Status AssignmentService::ApplyChurnEventLocked(
    const scenario::ChurnEvent& event) {
  if (event.broker >= platform_->num_brokers()) {
    return Status::OutOfRange("churn event names an unknown broker");
  }
  switch (event.kind) {
    case scenario::ChurnKind::kJoin: {
      if (platform_->BrokerActive(event.broker)) return Status::OK();
      LACB_RETURN_NOT_OK(platform_->SetBrokerActive(event.broker, true));
      // Cold-start prior into the store only: replicas are mid-day hot
      // (workers read them concurrently) and re-estimate at BeginDay.
      double cold = options_.scenario != nullptr
                        ? options_.scenario->ColdCapacity(event)
                        : event.cold_capacity;
      if (cold > 0.0) store_.SetBrokerCapacity(event.broker, cold);
      break;
    }
    case scenario::ChurnKind::kLeave:
    case scenario::ChurnKind::kFail: {
      if (!platform_->BrokerActive(event.broker)) return Status::OK();
      LACB_RETURN_NOT_OK(platform_->SetBrokerActive(event.broker, false));
      store_.RetireBroker(event.broker);
      if (event.kind == scenario::ChurnKind::kFail) {
        LACB_RETURN_NOT_OK(platform_->RetireBrokerDay(event.broker));
      }
      break;
    }
  }
  churn_events_.fetch_add(1, std::memory_order_relaxed);
  if (recorder_ != nullptr) recorder_->Instant("serve.churn");
  return Status::OK();
}

Status AssignmentService::AdvanceChurnLocked(size_t day, uint64_t max_offset) {
  if (options_.scenario == nullptr) return Status::OK();
  const std::vector<scenario::ChurnEvent>& timeline =
      options_.scenario->timeline();
  while (churn_cursor_ < timeline.size()) {
    const scenario::ChurnEvent& ev = timeline[churn_cursor_];
    // An event of an earlier day is skipped, not applied: on a warm restart
    // the activity mask arrived inside the checkpointed platform, and
    // replaying past churn on top of it would double-apply.
    if (ev.day < day) {
      ++churn_cursor_;
      continue;
    }
    if (ev.day > day || ev.batch_offset > max_offset) break;
    LACB_RETURN_NOT_OK(ApplyChurnEventLocked(ev));
    ++churn_cursor_;
  }
  return Status::OK();
}

void AssignmentService::Shutdown() {
  if (!started_ || shutdown_.load(std::memory_order_acquire)) return;
  // Residual flush: if a day is still open, the batcher may be holding a
  // forming batch — close it with a flush token and drain (bounded, in
  // case workers are wedged) so it commits through the normal path
  // instead of being dropped with the queue.
  if (day_open_.load(std::memory_order_acquire)) {
    Flush();
    WaitIdleFor(std::chrono::milliseconds(5000));
  }
  // Stop supervision before joining workers: afterwards no restart can
  // race a join, and no redrive can land in a closing channel.
  supervisor_->Stop();
  shutdown_.store(true, std::memory_order_release);
  queue_->Close();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (std::thread& t : worker_threads_) {
      if (t.joinable()) t.join();
    }
  }
  // Defensive drain: a crash that lands after the supervisor stopped can
  // leave batches in the channel; account for them explicitly so the
  // request ledger stays exact.
  for (;;) {
    MicroBatch batch;
    {
      std::lock_guard<std::mutex> lock(channel_mu_);
      if (channel_.empty()) break;
      batch = std::move(channel_.front());
      channel_.pop_front();
    }
    DropBatchTerminal(batch, DropKind::kFailed);
  }
  // Appeals stranded in the batcher's carryover (re-queued but never
  // emitted into a later batch — the end-of-run appeal overflow) are
  // dropped here with accounting, keeping the conservation identity exact:
  //   submitted == assigned + unmatched + failed + dropped_appeals.
  if (batcher_ != nullptr) {
    DropRequests(/*token=*/0, batcher_->SnapshotCarryover(),
                 DropKind::kDroppedAppeal);
  }
  // Final drop-count sync: runs without an exposition server too, so the
  // captured RunTelemetry carries the truthful totals.
  SyncTimelineDrops();
  if (exposition_ != nullptr) exposition_->Stop();
}

void AssignmentService::BatcherLoop() {
  obs::ScopedContextAdoption adopt(registry_, tracer_, recorder_);
  for (;;) {
    std::optional<MicroBatch> batch = batcher_->NextBatch();
    if (!batch.has_value()) break;
    if (recorder_ != nullptr) {
      recorder_->Begin("serve.batch_close");
      for (const sim::Request& r : batch->requests) {
        recorder_->FlowStep("serve.request", RequestFlowId(r.id));
      }
      recorder_->End("serve.batch_close");
    }
    carryover_gauge_->Set(static_cast<double>(batcher_->carryover_size()));
    std::unique_lock<std::mutex> lock(channel_mu_);
    channel_not_full_.wait(lock, [&] {
      return channel_closed_ || channel_.size() < channel_capacity_;
    });
    if (channel_closed_) {
      lock.unlock();
      DropBatchTerminal(*batch, DropKind::kFailed);
      continue;
    }
    channel_.push_back(std::move(*batch));
    inflight_gauge_->Set(static_cast<double>(channel_.size()));
    lock.unlock();
    channel_not_empty_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(channel_mu_);
    channel_closed_ = true;
  }
  channel_not_empty_.notify_all();
}

void AssignmentService::WorkerLoop(size_t worker_index) {
  obs::ScopedContextAdoption adopt(registry_, tracer_, recorder_);
  const bool supervised = supervisor_ != nullptr && supervisor_->active();
  for (;;) {
    MicroBatch batch;
    {
      std::unique_lock<std::mutex> lock(channel_mu_);
      channel_not_empty_.wait(
          lock, [&] { return channel_closed_ || !channel_.empty(); });
      if (channel_.empty()) return;  // closed and drained
      batch = std::move(channel_.front());
      channel_.pop_front();
      inflight_gauge_->Set(static_cast<double>(channel_.size()));
    }
    channel_not_full_.notify_one();

    // Park a copy for the supervisor before any fault can hit: a stalled
    // or crashed worker's batch is re-driven from the parked copy.
    if (supervised) supervisor_->Park(worker_index, batch);

    FaultDecision loop_fault =
        DecideAt(injector_.get(), FaultSite::kWorkerLoop);
    if (loop_fault.action == FaultAction::kCrashBeforeCommit && supervised &&
        supervisor_->TryCrash(worker_index)) {
      // Injected crash: this thread dies with the batch parked. The
      // supervisor re-drives the copy (to the channel front, so order is
      // preserved) and restarts the worker. Without a supervisor there is
      // nobody to restart us, so crash faults require one (see fault.h);
      // likewise TryCrash refuses once the supervisor is stopping (during
      // Shutdown's drain), because dying then would strand the batch.
      return;
    }
    if (loop_fault.action == FaultAction::kStall) {
      // A wedged worker: no heartbeat for the whole sleep, so a stall
      // longer than stall_timeout is detected and the batch re-driven;
      // when this worker eventually finishes anyway, the terminal claim
      // makes the slower twin a no-op.
      std::this_thread::sleep_for(loop_fault.stall);
    }

    Status status = ProcessBatch(worker_index, batch);
    if (supervised) supervisor_->Unpark(worker_index);
    if (!status.ok()) {
      SetError(status);
      // Fatal error before the terminal claim: fail the batch explicitly
      // so the ledger still balances and WaitIdle observes the retire.
      DropBatchTerminal(batch, DropKind::kFailed);
    }
  }
}

Status AssignmentService::ProcessBatch(size_t worker_index,
                                       const MicroBatch& batch) {
  LACB_TRACE_SPAN("serve.batch");
  const bool attribute = stage_queue_wait_hist_ != nullptr;
  std::chrono::steady_clock::time_point picked_up{};
  if (attribute) picked_up = std::chrono::steady_clock::now();
  if (killed_.load(std::memory_order_acquire)) {
    // The injected process kill already fired: this process is "dead".
    // Every batch that still reaches a worker fails terminally; recovery
    // happens in a fresh service instance via checkpoint + WAL replay.
    DropBatchTerminal(batch, DropKind::kFailed);
    return Status::OK();
  }
  if (!day_open_.load(std::memory_order_acquire)) {
    // Only carryover-only batches can surface here (CloseDay drains every
    // queued item before the day closes): appeals that outlive the horizon
    // are dropped, exactly like the platform's appeal overflow at the end
    // of the run — but with explicit ledger accounting.
    DropBatchTerminal(batch, DropKind::kDroppedAppeal);
    return Status::OK();
  }
  {
    // Twin short-circuit: if another copy of this batch (a supervisor
    // redrive) already reached its terminal, skip the solve entirely.
    std::lock_guard<std::mutex> lock(env_mu_);
    if (terminal_tokens_.count(batch.token) != 0) return Status::OK();
  }

  // Store access (stall injection point: a slow snapshot read).
  FaultDecision store_fault = DecideAt(injector_.get(), FaultSite::kStore);
  if (store_fault.action == FaultAction::kStall) {
    std::this_thread::sleep_for(store_fault.stall);
    if (supervisor_ != nullptr) supervisor_->Beat(worker_index);
  }
  BatchStage& stage = worker_stages_[worker_index];
  BuildBatchInput(batch.requests, &stage);
  std::vector<int64_t> assignment;
  LACB_ASSIGN_OR_RETURN(const SolveOutcome solve,
                        SolveBatch(worker_index, stage.input, &assignment));
  // Sanitize before the commit (and before the WAL append inside it, so a
  // replayed batch re-commits the already-sanitized assignment): an edge
  // into an inactive broker becomes terminally unmatched. Catches both the
  // steered policy solve and the greedy fallback — the fallback treats the
  // retired broker's unknown capacity (0) as infinite residual.
  churn_rejected_.fetch_add(SanitizeAssignment(stage.active_mask, &assignment),
                            std::memory_order_relaxed);
  if (supervisor_ != nullptr) supervisor_->Beat(worker_index);

  Stopwatch stage_sw;  // the commit stage starts here
  bool owner = false;
  bool committed = false;
  sim::ExternalCommitOutcome commit;
  LACB_RETURN_NOT_OK(CommitWithRetry(worker_index, batch, assignment, solve,
                                     &owner, &committed, &commit));
  if (!owner) {
    // A twin claimed the terminal first: it did (or will do) the
    // disposition and the retire; this copy evaporates.
    return Status::OK();
  }
  // Terminal owner: batch-level instruments count exactly once per token,
  // no matter how many twins raced.
  RecordBatchClose(batch, picked_up, attribute ? stage_sw.ElapsedSeconds() : 0);
  if (attribute) stage_sw.Restart();  // the disposition stage starts here
  if (solve != SolveOutcome::kSolved) {
    degraded_counter_->Increment();
    RecordIncident("degraded_batch");
  }
  DisposeBatch(batch, assignment, committed, &commit);
  if (attribute) {
    double disposition_seconds = stage_sw.ElapsedSeconds();
    stage_disposition_hist_->Record(disposition_seconds);
    stage_disposition_total_->Add(disposition_seconds);
  }
  RetireWork(static_cast<int64_t>(batch.from_queue));
  // Injected process kill: fires at a batch boundary — this batch fully
  // disposed (committed, WAL-logged, retired), nothing after it survives.
  // The durable prefix is exactly the WAL through this batch, which is
  // what the crash-recovery gate replays.
  if (injector_ != nullptr && options_.fault_plan.kill_after_commits > 0 &&
      commits_applied_.load(std::memory_order_acquire) >=
          options_.fault_plan.kill_after_commits &&
      !killed_.exchange(true, std::memory_order_acq_rel)) {
    RecordIncident("process_kill");
    SetError(Status::Internal("injected process kill (fault plan)"));
  }
  return Status::OK();
}

void AssignmentService::BuildBatchInput(
    const std::vector<sim::Request>& requests, BatchStage* stage) {
  store_.SnapshotWorkloads(&stage->workloads);
  // Scenario churn steering: the policy sees churned-away brokers as
  // saturated. The mask copy happens under env_mu_ (churn mutates it at
  // commit boundaries); with several workers a batch may race the event
  // one commit either way — SanitizeAssignment is what guarantees no
  // assignment ever lands on an inactive broker.
  if (options_.scenario != nullptr && options_.scenario->HasChurn()) {
    {
      std::lock_guard<std::mutex> lock(env_mu_);
      stage->active_mask = platform_->ActiveMaskCopy();
    }
    const size_t n =
        std::min(stage->active_mask.size(), stage->workloads.size());
    for (size_t b = 0; b < n; ++b) {
      if (stage->active_mask[b] == 0) {
        stage->workloads[b] = scenario::kInactiveWorkload;
      }
    }
  }
  {
    LACB_TRACE_SPAN("serve.utility_matrix");
    platform_->utility_model().UtilityMatrix(requests, &stage->utility);
  }
  stage->input.requests = &requests;
  stage->input.utility = &stage->utility;
  stage->input.workloads = &stage->workloads;
  stage->input.day = current_day_.load(std::memory_order_acquire);
  stage->input.batch = batch_seq_.fetch_add(1, std::memory_order_acq_rel);
  stage->input.collect_solve_stats = options_.solver_introspection;
}

Result<AssignmentService::SolveOutcome> AssignmentService::SolveBatch(
    size_t worker_index, const policy::BatchInput& input,
    std::vector<int64_t>* assignment) {
  // An injected overrun models a deadline abort: the real solve is skipped
  // outright (replica state untouched, no RNG consumed — what a true
  // cancellation would do). A measured overrun is detected after the fact,
  // so its result is discarded. Both degrade to the greedy capacity-aware
  // fallback over the store's residual view: feasible, O(R×B), bounded
  // utility loss instead of a missed batch.
  const bool budgeted = options_.solve_budget.count() > 0;
  FaultDecision solve_fault = DecideAt(injector_.get(), FaultSite::kSolve);
  SolveOutcome outcome =
      budgeted && solve_fault.action == FaultAction::kOverBudgetSolve
          ? SolveOutcome::kSkipped
          : SolveOutcome::kSolved;
  if (outcome == SolveOutcome::kSolved) {
    LACB_TRACE_SPAN("serve.assign");
    Stopwatch sw;
    LACB_ASSIGN_OR_RETURN(*assignment,
                          replicas_[worker_index]->AssignBatch(input));
    double elapsed = sw.ElapsedSeconds();
    assign_latency_hist_->Record(elapsed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      assign_seconds_ += elapsed;
    }
    if (stage_solve_hist_ != nullptr) {
      stage_solve_hist_->Record(elapsed);
      stage_solve_total_->Add(elapsed);
    }
    if (options_.solver_introspection) {
      if (const matching::SolveStats* ss =
              replicas_[worker_index]->last_solve_stats();
          ss != nullptr) {
        RecordSolveStats(*ss);
      }
    }
    const double budget_s =
        std::chrono::duration<double>(options_.solve_budget).count();
    if (budgeted && elapsed > budget_s) outcome = SolveOutcome::kOverran;
  }
  if (outcome != SolveOutcome::kSolved) {
    LACB_TRACE_SPAN("serve.assign_degraded");
    *assignment = GreedyCapacityAssign(
        input, store_.ResidualCapacities(
                   std::numeric_limits<double>::infinity()));
  }
  return outcome;
}

Status AssignmentService::CommitWithRetry(
    size_t worker_index, const MicroBatch& batch,
    const std::vector<int64_t>& assignment, SolveOutcome solve, bool* owner,
    bool* committed, sim::ExternalCommitOutcome* outcome) {
  *owner = false;
  *committed = false;
  const size_t max_attempts = std::max<size_t>(1, options_.commit_max_attempts);
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    FaultDecision fault = DecideAt(injector_.get(), FaultSite::kCommit);
    if (fault.action == FaultAction::kStall) {
      // A slow commit; stall outside env_mu_ so the injected latency does
      // not serialize the whole pipeline behind this worker.
      std::this_thread::sleep_for(fault.stall);
      if (supervisor_ != nullptr) supervisor_->Beat(worker_index);
    }
    {
      LACB_TRACE_SPAN("serve.commit");
      std::lock_guard<std::mutex> lock(env_mu_);
      if (terminal_tokens_.count(batch.token) != 0) {
        return Status::OK();  // a twin finished this batch; not the owner
      }
      if (fault.action != FaultAction::kTransientError) {
        // The first apply is journaled even when the injected fault is a
        // lost *ack*: the commit applied, so it is durable state.
        LACB_RETURN_NOT_OK(ApplyCommitLocked(
            batch.token, static_cast<uint32_t>(worker_index), batch.requests,
            assignment, solve, /*log_wal=*/true, outcome));
        if (fault.action != FaultAction::kTransientErrorAfterApply) {
          *owner = TryClaimTerminalLocked(batch.token);
          *committed = true;
          return Status::OK();
        }
        // Lost acknowledgement: the commit applied but this caller sees an
        // error. The retry hits the duplicate-token path and gets the
        // cached outcome back — capacity is decremented once.
      }
      // else: failed before the apply — nothing happened; retry below.
    }
    // Transient failure: bounded exponential backoff with deterministic
    // per-(token, attempt) jitter, slept outside every lock.
    retry_counter_->Increment();
    RecordIncident("commit_retry");
    if (attempt < max_attempts) {
      int64_t base_us = options_.commit_backoff_base.count()
                        << std::min<size_t>(attempt - 1, 20);
      int64_t capped_us =
          std::min(options_.commit_backoff_cap.count(), base_us);
      double jitter =
          0.5 + 0.5 * Rng(kRetryJitterSeed)
                          .Fork(batch.token * 0x9e3779b9ULL + attempt)
                          .Uniform();
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(static_cast<double>(capped_us) * jitter)));
      if (supervisor_ != nullptr) supervisor_->Beat(worker_index);
    }
  }
  // Retries exhausted. The last failure may have been a lost ack (the
  // commit applied), so reconcile against the platform before declaring
  // the batch failed — otherwise capacity would be consumed by requests
  // the ledger counts as shed. A twin that already claimed the terminal
  // leaves this caller without ownership.
  std::lock_guard<std::mutex> lock(env_mu_);
  const sim::ExternalCommitOutcome* found =
      platform_->FindExternalCommit(batch.token);
  if (found != nullptr) *outcome = *found;
  *owner = TryClaimTerminalLocked(batch.token);
  *committed = found != nullptr;
  return Status::OK();
}

Status AssignmentService::ApplyCommitLocked(
    uint64_t token, uint32_t worker_index,
    const std::vector<sim::Request>& requests,
    const std::vector<int64_t>& assignment, SolveOutcome solve, bool log_wal,
    sim::ExternalCommitOutcome* outcome) {
  LACB_ASSIGN_OR_RETURN(
      *outcome, platform_->CommitExternalBatch(requests, assignment, token));
  if (outcome->duplicate) return Status::OK();
  const uint64_t day = current_day_.load(std::memory_order_acquire);
  if (log_wal) {
    // Journaled atomically with the platform mutation (the caller's
    // env_mu_ critical section).
    LACB_RETURN_NOT_OK(JournalLocked([&](persist::WalWriter& wal) {
      return wal.AppendBatch(token, day, worker_index, requests, assignment,
                             solve);
    }));
    commits_applied_.fetch_add(1, std::memory_order_acq_rel);
    commits_since_ckpt_.fetch_add(1, std::memory_order_acq_rel);
  }
  const uint64_t commits =
      commits_today_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Mid-day scenario churn lands at commit boundaries: an event with
  // batch_offset k applies once k batches of its day have committed,
  // atomically with the commit.
  Status churn = AdvanceChurnLocked(day, commits);
  if (!churn.ok()) SetError(churn);
  store_.CommitAccepted(outcome->accepted);
  return Status::OK();
}

void AssignmentService::RecordBatchClose(
    const MicroBatch& batch, std::chrono::steady_clock::time_point picked_up,
    double commit_seconds) {
  batch_counter_->Increment();
  switch (batch.close_cause) {
    case BatchCloseCause::kSize:
      size_close_counter_->Increment();
      break;
    case BatchCloseCause::kDeadline:
      deadline_close_counter_->Increment();
      break;
    case BatchCloseCause::kFlush:
    case BatchCloseCause::kShutdown:
      flush_close_counter_->Increment();
      break;
  }
  batch_size_hist_->Record(static_cast<double>(batch.requests.size()));
  if (stage_queue_wait_hist_ == nullptr) return;
  // Queue wait is per request (arrival → batch close); the batch's
  // critical-path contribution is the longest waiter. Channel wait and
  // everything downstream are batch-scoped.
  double max_queue_wait = 0.0;
  for (const auto& arrival : batch.arrival_times) {
    double wait =
        std::chrono::duration<double>(batch.closed_at - arrival).count();
    if (wait < 0.0) wait = 0.0;
    stage_queue_wait_hist_->Record(wait);
    if (wait > max_queue_wait) max_queue_wait = wait;
  }
  stage_queue_wait_total_->Add(max_queue_wait);
  double channel_wait =
      std::chrono::duration<double>(picked_up - batch.closed_at).count();
  if (channel_wait < 0.0) channel_wait = 0.0;
  stage_channel_wait_hist_->Record(channel_wait);
  stage_channel_wait_total_->Add(channel_wait);
  stage_commit_hist_->Record(commit_seconds);
  stage_commit_total_->Add(commit_seconds);
}

void AssignmentService::DisposeBatch(const MicroBatch& batch,
                                     const std::vector<int64_t>& assignment,
                                     bool committed,
                                     sim::ExternalCommitOutcome* commit) {
  if (!committed) {
    // Retry budget exhausted and the platform confirmed nothing applied:
    // the whole batch is shed with explicit accounting.
    DropRequests(batch.token, batch.requests, DropKind::kFailed);
    RecordIncident("commit_failed");
    return;
  }
  const bool sink = static_cast<bool>(options_.disposition_sink);
  BatchDisposition disposition;
  if (sink || recorder_ != nullptr) {
    disposition = MakeDisposition(
        batch.token, current_day_.load(std::memory_order_acquire),
        batch.requests, assignment, commit->appealed);
  }
  if (recorder_ != nullptr) {
    // Terminate each request's flow at the commit; appealed requests keep
    // their flow alive (they re-enter through carryover and step again at
    // the next batch close).
    recorder_->Begin("serve.disposition");
    for (const std::vector<int64_t>* ids :
         {&disposition.assigned, &disposition.unmatched}) {
      for (int64_t id : *ids) {
        recorder_->FlowEnd("serve.request", RequestFlowId(id));
      }
    }
    recorder_->End("serve.disposition");
  }
  if (!commit->appealed.empty()) {
    appeal_counter_->Increment(commit->appealed.size());
    if (queue_->closed()) {
      // Shutdown already retired the batcher: an appeal re-queued now
      // would never be drained. Drop with accounting instead of leaking
      // the requests out of the ledger.
      dropped_counter_->Increment(commit->appealed.size());
      disposition.dropped.swap(disposition.appealed);
    } else {
      batcher_->AddCarryover(std::move(commit->appealed));
      carryover_gauge_->Set(static_cast<double>(batcher_->carryover_size()));
    }
  }
  assigned_counter_->Increment(commit->accepted.size());
  unmatched_counter_->Increment(static_cast<uint64_t>(
      std::count_if(assignment.begin(), assignment.end(),
                    [](int64_t a) { return a < 0; })));
  if (sink) options_.disposition_sink(disposition);

  auto now = std::chrono::steady_clock::now();
  for (const auto& arrival : batch.arrival_times) {
    double e2e = std::chrono::duration<double>(now - arrival).count();
    e2e_latency_hist_->Record(e2e);
    RecordLatencySlo(e2e);
  }
}

bool AssignmentService::TryClaimTerminalLocked(uint64_t token) {
  return terminal_tokens_.insert(token).second;
}

void AssignmentService::DropBatchTerminal(const MicroBatch& batch,
                                          DropKind kind) {
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(env_mu_);
    claimed = TryClaimTerminalLocked(batch.token);
  }
  if (!claimed) return;
  DropRequests(batch.token, batch.requests, kind);
  RetireWork(static_cast<int64_t>(batch.from_queue));
}

void AssignmentService::DropRequests(uint64_t token,
                                     const std::vector<sim::Request>& requests,
                                     DropKind kind) {
  if (requests.empty()) return;
  const bool failed = kind == DropKind::kFailed;
  (failed ? failed_counter_ : dropped_counter_)->Increment(requests.size());
  if (!options_.disposition_sink) return;
  BatchDisposition d =
      MakeDisposition(token, current_day_.load(std::memory_order_acquire),
                      requests, /*assignment=*/{}, /*appealed=*/{});
  (failed ? d.failed : d.dropped).swap(d.unmatched);
  options_.disposition_sink(d);
}

void AssignmentService::RedriveBatch(MicroBatch&& batch) {
  std::unique_lock<std::mutex> lock(channel_mu_);
  if (channel_closed_) {
    lock.unlock();
    DropBatchTerminal(batch, DropKind::kFailed);
    return;
  }
  // Channel *front*, skipping the capacity bound: the replacement worker
  // must see the re-driven batch before anything newer (deterministic
  // order), and the supervisor must never block behind backpressure.
  channel_.push_front(std::move(batch));
  inflight_gauge_->Set(static_cast<double>(channel_.size()));
  redrive_counter_->Increment();
  lock.unlock();
  channel_not_empty_.notify_one();
}

void AssignmentService::RestartWorker(size_t worker_index) {
  std::lock_guard<std::mutex> lock(threads_mu_);
  if (shutdown_.load(std::memory_order_acquire)) return;
  std::thread& slot = worker_threads_[worker_index];
  if (slot.joinable()) slot.join();  // the crashed thread has exited
  restart_counter_->Increment();
  slot = std::thread([this, worker_index] { WorkerLoop(worker_index); });
}

void AssignmentService::RecordAdmissionSlo(bool admitted) {
  for (const SloRuntime& slo : slos_) {
    if (slo.target == SloTarget::kAdmission) slo.tracker->Record(admitted);
  }
}

void AssignmentService::RecordLatencySlo(double seconds) {
  for (const SloRuntime& slo : slos_) {
    if (slo.target == SloTarget::kLatency) {
      slo.tracker->Record(seconds <=
                          slo.tracker->spec().latency_threshold_seconds);
    }
  }
}

void AssignmentService::RecordSolveStats(const matching::SolveStats& stats) {
  if (solver_solves_counter_ == nullptr || stats.solves == 0) return;
  solver_solves_counter_->Increment(stats.solves);
  solver_iterations_counter_->Increment(stats.iterations);
  solver_paths_counter_->Increment(stats.augmenting_paths);
  solver_duals_counter_->Increment(stats.dual_updates);
  solver_rows_hist_->Record(static_cast<double>(stats.rows));
  solver_seconds_hist_->Record(stats.total_seconds);
  solver_objective_total_->Add(stats.objective);
  std::lock_guard<std::mutex> lock(stats_mu_);
  solver_stats_.MergeFrom(stats);
}

void AssignmentService::SyncTimelineDrops() {
  if (recorder_ == nullptr || timeline_dropped_counter_ == nullptr) return;
  uint64_t total = recorder_->dropped();
  // exchange() makes concurrent scrapes race-safe: each drop increment is
  // attributed exactly once, a stale read yields a non-positive delta.
  uint64_t prev =
      timeline_drops_synced_.exchange(total, std::memory_order_acq_rel);
  if (total > prev) timeline_dropped_counter_->Increment(total - prev);
}

void AssignmentService::RefreshStoreGauges() {
  if (registry_ == nullptr) return;
  const std::vector<double> residuals =
      store_.ResidualCapacities(std::numeric_limits<double>::infinity());
  std::vector<double> known;
  known.reserve(residuals.size());
  for (double r : residuals) {
    if (!std::isinf(r)) known.push_back(std::max(0.0, r));
  }
  // Lazy registration keeps the never-scraped default path instrument-free.
  obs::Gauge& min_gauge = registry_->GetGauge(
      "serve.store.residual_min",
      "Smallest residual capacity across brokers with installed capacity "
      "(-1: no capacities installed).");
  obs::Gauge& median_gauge = registry_->GetGauge(
      "serve.store.residual_median",
      "Median residual capacity across brokers with installed capacity "
      "(-1: no capacities installed).");
  obs::Gauge& gini_gauge = registry_->GetGauge(
      "serve.store.residual_gini",
      "Gini coefficient of residual capacities: 0 = headroom evenly "
      "spread, towards 1 = concentrated on few brokers (-1: no capacities "
      "installed).");
  if (known.empty()) {
    min_gauge.Set(-1.0);
    median_gauge.Set(-1.0);
    gini_gauge.Set(-1.0);
    return;
  }
  std::sort(known.begin(), known.end());
  min_gauge.Set(known.front());
  median_gauge.Set(known[known.size() / 2]);
  // Gini via the sorted-rank identity: G = 2·Σ i·x_i / (n·Σ x_i) − (n+1)/n.
  double total = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < known.size(); ++i) {
    total += known[i];
    weighted += static_cast<double>(i + 1) * known[i];
  }
  const double n = static_cast<double>(known.size());
  gini_gauge.Set(total > 0.0
                     ? (2.0 * weighted) / (n * total) - (n + 1.0) / n
                     : 0.0);
}

void AssignmentService::RecordIncident(const char* /*kind*/) {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    any_incident_ = true;
    ++incident_count_;
    last_incident_ = std::chrono::steady_clock::now();
  }
  Health();  // refresh the exported gauge
}

obs::HealthReport AssignmentService::Health() const {
  obs::HealthReport report;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_.ok()) {
      report.state = obs::HealthState::kUnhealthy;
      report.detail = "fatal: " + error_.message();
    }
  }
  if (report.state != obs::HealthState::kUnhealthy && supervisor_ != nullptr &&
      supervisor_->active()) {
    size_t unavailable = supervisor_->WorkersUnavailable();
    size_t total = supervisor_->num_workers();
    if (total > 0 && unavailable >= total) {
      report.state = obs::HealthState::kUnhealthy;
      report.detail =
          "all " + std::to_string(total) + " workers stalled or crashed";
    } else if (unavailable > 0) {
      report.state = obs::HealthState::kDegraded;
      report.detail = std::to_string(unavailable) + "/" +
                      std::to_string(total) + " workers unavailable";
    }
  }
  // SLO burn states fold in after worker availability: a critical SLO in
  // fast burn is an outage (unhealthy); any other burn degrades. The
  // exported slo.<name>.* gauges refresh on every probe.
  if (report.state != obs::HealthState::kUnhealthy) {
    for (const SloRuntime& slo : slos_) {
      obs::SloEvaluation eval = slo.tracker->Evaluate();
      slo.burn_short->Set(eval.burn_rate_short);
      slo.burn_long->Set(eval.burn_rate_long);
      slo.state->Set(static_cast<double>(static_cast<int>(eval.state)));
      slo.budget->Set(eval.budget_remaining);
      if (eval.state == obs::BurnState::kFastBurn &&
          slo.tracker->spec().critical) {
        report.state = obs::HealthState::kUnhealthy;
        report.detail =
            "slo " + slo.tracker->spec().name + " burning fast";
      } else if (eval.state != obs::BurnState::kOk &&
                 report.state == obs::HealthState::kHealthy) {
        report.state = obs::HealthState::kDegraded;
        report.detail = "slo " + slo.tracker->spec().name + " burning";
      }
    }
  }
  if (report.state == obs::HealthState::kHealthy) {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (any_incident_ &&
        std::chrono::steady_clock::now() - last_incident_ <= kHealthWindow) {
      report.state = obs::HealthState::kDegraded;
      report.detail =
          "recent fault incidents: " + std::to_string(incident_count_);
    }
  }
  if (report.detail.empty()) report.detail = "serving";
  if (health_gauge_ != nullptr) {
    health_gauge_->Set(static_cast<double>(static_cast<int>(report.state)));
  }
  return report;
}

void AssignmentService::SetStoreCapacities(
    const std::vector<double>& capacities) {
  store_.SetCapacities(capacities);
}

void AssignmentService::RetireWork(int64_t units) {
  if (units == 0) return;
  bool idle;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    in_system_ -= units;
    idle = in_system_ <= 0;
  }
  if (idle) idle_cv_.notify_all();
}

void AssignmentService::SetError(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_.ok()) error_ = status;
  }
  idle_cv_.notify_all();
}

Status AssignmentService::MaybeCheckpoint() {
  if (ckpt_mgr_ == nullptr || options_.checkpoint_interval_batches == 0) {
    return Status::OK();
  }
  if (killed_.load(std::memory_order_acquire)) return Status::OK();
  if (commits_since_ckpt_.load(std::memory_order_acquire) <
      options_.checkpoint_interval_batches) {
    return Status::OK();
  }
  return Checkpoint();
}

Status AssignmentService::Checkpoint() {
  if (ckpt_mgr_ == nullptr) {
    return Status::FailedPrecondition(
        "persistence disabled (set ServeOptions::checkpoint_dir)");
  }
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (in_system_ > 0) {
      return Status::FailedPrecondition(
          "checkpoint requires an idle service (call after WaitIdle)");
    }
  }
  return CheckpointLocked();
}

Status AssignmentService::CheckpointLocked() {
  Stopwatch sw;
  persist::Checkpoint ckpt;
  ckpt.seq = next_ckpt_seq_;
  uint64_t bytes = 0;
  {
    // env_mu_ makes the snapshot quiesced: no commit can interleave with
    // the section build or the WAL rotation.
    std::lock_guard<std::mutex> lock(env_mu_);
    LACB_RETURN_NOT_OK(BuildCheckpointSections(&ckpt));
    LACB_ASSIGN_OR_RETURN(bytes, ckpt_mgr_->Write(ckpt));
    if (options_.checkpoint_sink) {
      // Ship the bootstrap envelope before any record of the new WAL
      // sequence: a follower that has ckpt seq k can always replay wal-k.
      options_.checkpoint_sink(ckpt.seq, persist::EncodeCheckpoint(ckpt));
    }
    LACB_ASSIGN_OR_RETURN(
        wal_, persist::WalWriter::Create(ckpt_mgr_->WalPath(ckpt.seq),
                                         ckpt.seq, options_.wal_fsync));
    if (options_.wal_record_sink) {
      const uint64_t seq = ckpt.seq;
      wal_->set_record_sink([this, seq](std::string_view record) {
        options_.wal_record_sink(seq, record);
      });
    }
  }
  commits_since_ckpt_.store(0, std::memory_order_release);
  ++next_ckpt_seq_;
  persist_ckpt_counter_->Increment();
  persist_ckpt_bytes_counter_->Increment(bytes);
  persist_last_seq_gauge_->Set(static_cast<double>(ckpt.seq));
  persist_ckpt_seconds_hist_->Record(sw.ElapsedSeconds());
  return Status::OK();
}

Status AssignmentService::BuildCheckpointSections(persist::Checkpoint* out) {
  persist::ByteWriter meta;
  meta.Str(policy_name_);
  meta.U64(current_day_.load(std::memory_order_acquire));
  meta.Bool(day_open_.load(std::memory_order_acquire));
  meta.U64(batch_seq_.load(std::memory_order_acquire));
  meta.U64(batcher_->next_token());
  meta.U64(commits_today_.load(std::memory_order_acquire));
  meta.U64(replicas_.size());
  out->sections.push_back({"meta", meta.Release()});

  persist::ByteWriter platform_w;
  LACB_RETURN_NOT_OK(platform_->SaveState(&platform_w));
  out->sections.push_back({"platform", platform_w.Release()});

  persist::ByteWriter store_w;
  WriteBrokerSlots(&store_w, store_.ExportSlots());
  out->sections.push_back({"store", store_w.Release()});

  for (size_t i = 0; i < replicas_.size(); ++i) {
    persist::ByteWriter replica_w;
    LACB_RETURN_NOT_OK(replicas_[i]->SaveState(&replica_w));
    out->sections.push_back(
        {"replica." + std::to_string(i), replica_w.Release()});
  }

  persist::ByteWriter batcher_w;
  persist::WriteRequests(&batcher_w, batcher_->SnapshotCarryover());
  out->sections.push_back({"batcher", batcher_w.Release()});
  return Status::OK();
}

Status AssignmentService::ApplyCheckpoint(const persist::Checkpoint& ckpt,
                                          std::vector<sim::Request>* carryover) {
  LACB_ASSIGN_OR_RETURN(persist::ByteReader meta_r,
                        SectionReader(ckpt, "meta"));
  LACB_ASSIGN_OR_RETURN(std::string policy, meta_r.Str());
  if (policy != policy_name_) {
    return Status::FailedPrecondition("checkpoint was cut by policy '" +
                                      policy + "', serving '" + policy_name_ +
                                      "'");
  }
  LACB_ASSIGN_OR_RETURN(uint64_t day, meta_r.U64());
  LACB_ASSIGN_OR_RETURN(bool day_open, meta_r.Bool());
  LACB_ASSIGN_OR_RETURN(uint64_t batch_seq, meta_r.U64());
  LACB_ASSIGN_OR_RETURN(uint64_t next_token, meta_r.U64());
  LACB_ASSIGN_OR_RETURN(uint64_t commits_today, meta_r.U64());
  LACB_ASSIGN_OR_RETURN(uint64_t num_replicas, meta_r.U64());
  if (num_replicas != replicas_.size()) {
    return Status::FailedPrecondition(
        "worker count changed across restore: checkpoint has " +
        std::to_string(num_replicas) + " replicas, service has " +
        std::to_string(replicas_.size()));
  }

  LACB_ASSIGN_OR_RETURN(persist::ByteReader platform_r,
                        SectionReader(ckpt, "platform"));
  LACB_RETURN_NOT_OK(platform_->LoadState(&platform_r));
  LACB_ASSIGN_OR_RETURN(persist::ByteReader store_r,
                        SectionReader(ckpt, "store"));
  LACB_ASSIGN_OR_RETURN(std::vector<BrokerSlot> slots,
                        ReadBrokerSlots(&store_r));
  LACB_RETURN_NOT_OK(store_.RestoreSlots(slots));
  for (size_t i = 0; i < replicas_.size(); ++i) {
    LACB_ASSIGN_OR_RETURN(persist::ByteReader replica_r,
                          SectionReader(ckpt, "replica." + std::to_string(i)));
    LACB_RETURN_NOT_OK(replicas_[i]->LoadState(&replica_r));
  }
  LACB_ASSIGN_OR_RETURN(persist::ByteReader batcher_r,
                        SectionReader(ckpt, "batcher"));
  LACB_ASSIGN_OR_RETURN(*carryover, persist::ReadRequests(&batcher_r));

  current_day_.store(day, std::memory_order_release);
  day_open_.store(day_open, std::memory_order_release);
  batch_seq_.store(batch_seq, std::memory_order_release);
  commits_today_.store(commits_today, std::memory_order_release);
  batcher_->set_next_token(next_token);
  return Status::OK();
}

Status AssignmentService::RestoreFromDurable() {
  LACB_RETURN_NOT_OK(ckpt_mgr_->EnsureDir());
  Result<persist::LoadResult> loaded = ckpt_mgr_->LoadNewest();
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
    // Cold start: cut the anchor checkpoint immediately so the WAL always
    // has a base image to replay against.
    return CheckpointLocked();
  }
  if (loaded->skipped_corrupt > 0) {
    persist_load_fail_counter_->Increment(loaded->skipped_corrupt);
  }
  std::vector<sim::Request> carryover;
  LACB_RETURN_NOT_OK(ApplyCheckpoint(loaded->checkpoint, &carryover));
  next_ckpt_seq_ = loaded->checkpoint.seq + 1;

  // WALs chain: wal-k holds exactly the commits between checkpoint k and
  // checkpoint k+1, so replaying forward from the loaded sequence re-covers
  // everything acknowledged after it — including the WALs of *newer but
  // corrupt* checkpoints the loader fell back past. The chain ends at the
  // first missing file, unreadable header, or torn tail (the crash
  // frontier: nothing durable can exist beyond it).
  uint64_t replayed = 0;
  for (uint64_t seq = loaded->checkpoint.seq;; ++seq) {
    Result<persist::WalRecovery> recovery =
        persist::RecoverWal(ckpt_mgr_->WalPath(seq));
    if (!recovery.ok()) {
      if (recovery.status().code() != StatusCode::kNotFound) {
        // Unreadable WAL (bad header/version): count it and stop — the
        // checkpoint image plus the chain so far is all that is durable.
        persist_torn_counter_->Increment();
      }
      break;
    }
    LACB_RETURN_NOT_OK(
        ReplayWalRecords(recovery->records, &carryover, &replayed));
    if (recovery->truncated_torn_tail) {
      persist_torn_counter_->Increment();
      break;
    }
  }

  if (!carryover.empty()) {
    persist_carryover_counter_->Increment(carryover.size());
    batcher_->AddCarryover(std::move(carryover));
  }
  restore_info_.restored = true;
  restore_info_.day = current_day_.load(std::memory_order_acquire);
  restore_info_.day_open = day_open_.load(std::memory_order_acquire);
  restore_info_.batches_committed_today =
      commits_today_.load(std::memory_order_acquire);
  restore_info_.replayed_batches = replayed;
  persist_replayed_counter_->Increment(replayed);
  // Fresh anchor at seq+1: the next crash restores from here; the stale
  // WAL can never be replayed twice.
  return CheckpointLocked();
}

Status AssignmentService::ReplayWalRecords(
    const std::vector<persist::WalRecord>& records,
    std::vector<sim::Request>* carryover, uint64_t* replayed) {
  uint64_t max_token = 0;
  for (const persist::WalRecord& record : records) {
    switch (record.type) {
      case persist::WalRecordType::kDayOpen:
        LACB_RETURN_NOT_OK(
            DoOpenDay(static_cast<size_t>(record.day), /*log_wal=*/false));
        break;
      case persist::WalRecordType::kBatch: {
        // Recompute the assignment through the replica, on the input the
        // live batch built, so its learned state (value-function backups,
        // exploration RNG) advances in lockstep with the pre-crash process
        // — then commit the *recorded* assignment, which is what was
        // acknowledged. A batch whose live solve was skipped is not solved
        // here either; building its input still advances the batch index.
        // An overrun's solve ran live (its state changes stand) but the
        // greedy fallback committed, so only a kSolved result is compared.
        BatchStage stage;
        BuildBatchInput(record.requests, &stage);
        if (record.solve != SolveOutcome::kSkipped) {
          Result<std::vector<int64_t>> recomputed =
              replicas_[record.worker_index % replicas_.size()]->AssignBatch(
                  stage.input);
          if (recomputed.ok()) {
            SanitizeAssignment(stage.active_mask, &*recomputed);
          }
          if (!recomputed.ok() || (record.solve == SolveOutcome::kSolved &&
                                   *recomputed != record.assignment)) {
            // Divergence means the replica's restored state does not
            // reproduce the journaled decision. The recorded assignment
            // still commits (it is the acknowledged truth), but the
            // counter flags the replica drift for the recovery gate.
            persist_divergence_counter_->Increment();
          }
        }
        sim::ExternalCommitOutcome outcome;
        {
          std::lock_guard<std::mutex> lock(env_mu_);
          LACB_RETURN_NOT_OK(ApplyCommitLocked(
              record.token, record.worker_index, record.requests,
              record.assignment, record.solve, /*log_wal=*/false,
              &outcome));
        }
        // Re-derive the batch's disposition for coordinator
        // reconciliation — the partition the live sink saw.
        replay_log_.push_back(MakeDisposition(record.token, record.day,
                                              record.requests,
                                              record.assignment,
                                              outcome.appealed));
        *carryover = std::move(outcome.appealed);
        max_token = std::max(max_token, record.token);
        ++*replayed;
        break;
      }
      case persist::WalRecordType::kDayClose: {
        LACB_ASSIGN_OR_RETURN(sim::DayOutcome outcome,
                              DoCloseDay(/*log_wal=*/false));
        replayed_day_closes_.emplace_back(record.day,
                                          outcome.realized_utility);
        break;
      }
    }
  }
  if (max_token + 1 > batcher_->next_token()) {
    batcher_->set_next_token(max_token + 1);
  }
  return Status::OK();
}

std::vector<int64_t> AssignmentService::CarryoverRequestIds() const {
  std::vector<int64_t> ids;
  if (batcher_ != nullptr) {
    for (const sim::Request& r : batcher_->SnapshotCarryover()) {
      ids.push_back(r.id);
    }
  }
  return ids;
}

Result<std::string> AssignmentService::SerializeReplicaState(size_t index) {
  if (index >= replicas_.size()) {
    return Status::OutOfRange("replica index out of range");
  }
  persist::ByteWriter w;
  LACB_RETURN_NOT_OK(replicas_[index]->SaveState(&w));
  return w.Release();
}

Result<std::string> AssignmentService::SerializePlatformState() {
  persist::ByteWriter w;
  std::lock_guard<std::mutex> lock(env_mu_);
  LACB_RETURN_NOT_OK(platform_->SaveState(&w));
  return w.Release();
}

ServeStats AssignmentService::Stats() const {
  ServeStats stats;
  if (!started_) return stats;
  stats.submitted = submitted_counter_->value();
  stats.shed = shed_counter_->value();
  stats.batches = batch_counter_->value();
  stats.assigned = assigned_counter_->value();
  stats.unmatched = unmatched_counter_->value();
  stats.appeals = appeal_counter_->value();
  stats.size_closes = size_close_counter_->value();
  stats.deadline_closes = deadline_close_counter_->value();
  stats.flush_closes = flush_close_counter_->value();
  stats.failed = failed_counter_->value();
  stats.dropped_appeals = dropped_counter_->value();
  stats.degraded_batches = degraded_counter_->value();
  stats.commit_retries = retry_counter_->value();
  stats.redriven_batches = redrive_counter_->value();
  stats.worker_stalls = stall_counter_->value();
  stats.worker_crashes = crash_counter_->value();
  stats.worker_restarts = restart_counter_->value();
  stats.churn_events = churn_events_.load(std::memory_order_relaxed);
  stats.churn_rejected = churn_rejected_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.assign_seconds = assign_seconds_;
    stats.solver = solver_stats_;
  }
  return stats;
}

}  // namespace lacb::serve
