#include "lacb/cluster/coordinator.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <utility>

#include "lacb/cluster/frame.h"
#include "lacb/common/rng.h"
#include "lacb/obs/context.h"

namespace lacb::cluster {

namespace fs = std::filesystem;

namespace {

double UnixSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions opts)
    : options_(std::move(opts)),
      ring_(options_.num_ranges == 0 ? options_.num_shards
                                     : options_.num_ranges),
      num_ranges_(options_.num_ranges == 0 ? options_.num_shards
                                           : options_.num_ranges) {}

Result<std::unique_ptr<Coordinator>> Coordinator::Create(
    CoordinatorOptions opts) {
  if (opts.shard_binary.empty()) {
    return Status::InvalidArgument("Coordinator requires the shard binary");
  }
  if (opts.workdir.empty()) {
    return Status::InvalidArgument("Coordinator requires a workdir");
  }
  if (opts.num_shards == 0) {
    return Status::InvalidArgument("Coordinator requires >= 1 shard");
  }
  if (opts.num_ranges > 0 && opts.num_ranges < opts.num_shards) {
    return Status::InvalidArgument("fewer ranges than shards");
  }
  auto coord = std::unique_ptr<Coordinator>(new Coordinator(std::move(opts)));
  // Materialize every range's slice and its full request schedule — the
  // exact stream Platform::Create generates inside the shard, so killed
  // and unkilled runs feed bit-identical traffic.
  for (uint64_t r = 0; r < coord->num_ranges_; ++r) {
    RangeState& range = coord->ranges_[r];
    range.range = r;
    range.config = ShardDatasetConfig(coord->options_.base_config, r,
                                      coord->num_ranges_);
    Rng rng(range.config.seed);
    (void)sim::GenerateBrokers(range.config, &rng);
    range.schedule = sim::GenerateRequests(range.config, &rng);
  }
  return coord;
}

Coordinator::~Coordinator() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [id, shard] : shards_) {
      if (shard.pid > 0 && !shard.reaped) ::kill(shard.pid, SIGKILL);
      if (shard.fd >= 0) ::shutdown(shard.fd, SHUT_RDWR);
    }
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  for (auto& [id, shard] : shards_) {
    if (shard.reader.joinable()) shard.reader.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, shard] : shards_) {
    ReapLocked(&shard);
    if (shard.fd >= 0) {
      CloseFd(shard.fd);
      shard.fd = -1;
    }
  }
  if (listen_fd_ >= 0) CloseFd(listen_fd_);
}

// --- bring-up -------------------------------------------------------------

Status Coordinator::SpawnShard(uint64_t shard_id) {
  std::string arg_port = "--port=" + std::to_string(listen_port_);
  std::string arg_shard = "--shard=" + std::to_string(shard_id);
  std::string arg_hb =
      "--heartbeat-ms=" + std::to_string(options_.heartbeat_period.count());
  std::vector<char*> argv = {options_.shard_binary.data(), arg_port.data(),
                             arg_shard.data(), arg_hb.data(), nullptr};
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError("fork failed for shard " +
                           std::to_string(shard_id));
  }
  if (pid == 0) {
    ::execv(options_.shard_binary.c_str(), argv.data());
    _exit(127);  // execv only returns on failure
  }
  Shard& shard = shards_[shard_id];
  shard.id = shard_id;
  shard.pid = pid;
  shard.send_mu = std::make_unique<std::mutex>();
  return Status::OK();
}

AssignRange Coordinator::BuildAssignment(
    const RangeState& range, const std::string& checkpoint_dir) const {
  AssignRange msg;
  msg.range = range.range;
  msg.config = range.config;
  msg.checkpoint_dir = checkpoint_dir;
  msg.checkpoint_interval_batches = options_.checkpoint_interval_batches;
  msg.wal_fsync = options_.wal_fsync;
  msg.suite_seed = options_.suite_seed;
  msg.policy_index = options_.policy_index;
  return msg;
}

Status Coordinator::Start() {
  registry_ = &obs::ActiveRegistry();
  RegisterMetrics();
  std::error_code ec;
  // The persist layer creates only the leaf checkpoint directory, so the
  // shards' common parent must exist before any range is assigned.
  fs::create_directories(options_.workdir + "/local", ec);
  if (ec) {
    return Status::IoError("cannot create workdir: " + options_.workdir +
                           ": " + ec.message());
  }
  replica_ = std::make_unique<ReplicaStore>(options_.workdir + "/replica",
                                            options_.wal_fsync);

  LACB_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(0, &listen_port_));
  for (uint64_t s = 0; s < options_.num_shards; ++s) {
    LACB_RETURN_NOT_OK(SpawnShard(s));
  }
  // Connection order is arbitrary; the kHello frame names the shard.
  for (size_t i = 0; i < options_.num_shards; ++i) {
    LACB_ASSIGN_OR_RETURN(
        int fd, AcceptWithTimeout(listen_fd_, options_.startup_timeout));
    Result<Frame> frame = ReadFrame(fd);
    if (!frame.ok() ||
        frame->type != static_cast<uint8_t>(MessageType::kHello)) {
      CloseFd(fd);
      return Status::Internal("shard connection did not open with kHello");
    }
    LACB_ASSIGN_OR_RETURN(Hello hello, DecodeHello(frame->payload));
    auto it = shards_.find(hello.shard_id);
    if (it == shards_.end()) {
      CloseFd(fd);
      return Status::Internal("kHello from unknown shard " +
                              std::to_string(hello.shard_id));
    }
    it->second.fd = fd;
    it->second.alive = true;
    it->second.last_frame = std::chrono::steady_clock::now();
  }
  for (auto& [id, shard] : shards_) {
    uint64_t sid = id;
    shard.reader = std::thread([this, sid] { ReaderLoop(sid); });
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }

  // Initial placement: range r -> shard r mod N, local checkpoint dir.
  std::vector<Outbound> sends;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [r, range] : ranges_) {
      range.owner = r % options_.num_shards;
      std::string dir =
          options_.workdir + "/local/range" + std::to_string(r);
      sends.push_back({range.owner, MessageType::kAssignRange,
                       EncodeAssignRange(BuildAssignment(range, dir))});
    }
  }
  for (const Outbound& s : sends) {
    LACB_RETURN_NOT_OK(SendToShard(s.shard, s.type, s.payload));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    LACB_RETURN_NOT_OK(WaitLocked(
        &lock,
        [this] {
          for (const auto& [r, range] : ranges_) {
            if (!range.serving) return false;
          }
          return true;
        },
        "fleet bring-up"));
  }

  if (options_.exposition_port >= 0) {
    obs::ExpositionOptions expo;
    expo.port = options_.exposition_port;
    expo.health_fn = [this] { return Health(); };
    LACB_ASSIGN_OR_RETURN(exposition_,
                          obs::ExpositionServer::Start(
                              [this] {
                                {
                                  std::lock_guard<std::mutex> lock(mu_);
                                  SyncMetricsLocked();
                                }
                                return registry_->Snapshot();
                              },
                              expo));
  }
  return Status::OK();
}

// --- socket plumbing ------------------------------------------------------

Status Coordinator::SendToShard(uint64_t shard_id, MessageType type,
                                const std::string& payload) {
  int fd = -1;
  std::mutex* send_mu = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shards_.find(shard_id);
    if (it == shards_.end() || !it->second.alive || it->second.fd < 0) {
      return Status::NotFound("shard " + std::to_string(shard_id) +
                              " is not alive");
    }
    fd = it->second.fd;
    send_mu = it->second.send_mu.get();
  }
  Status s;
  {
    std::lock_guard<std::mutex> lock(*send_mu);
    s = SendFrame(fd, static_cast<uint8_t>(type), payload);
  }
  if (!s.ok()) {
    OnShardDown(shard_id, "send failed: " + s.ToString());
  }
  return s;
}

void Coordinator::ReaderLoop(uint64_t shard_id) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd = shards_[shard_id].fd;
  }
  for (;;) {
    Result<Frame> frame = ReadFrame(fd);
    if (!frame.ok()) {
      bool clean = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        clean = shutdown_ && shards_[shard_id].shutdown_acked;
        if (clean) shards_[shard_id].alive = false;
      }
      if (!clean) OnShardDown(shard_id, frame.status().ToString());
      cv_.notify_all();
      return;
    }
    FrameEffects fx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Shard& shard = shards_[shard_id];
      if (!shard.alive) {
        // The monitor declared this shard dead (heartbeat deadline) while
        // frames were still buffered. Applying one now could record a
        // disposition whose WAL record missed the adoption envelope — the
        // death point must be a clean cut in the frame stream.
        return;
      }
      shard.last_frame = std::chrono::steady_clock::now();
      HandleFrameLocked(shard_id, frame->type, frame->payload, &fx);
    }
    cv_.notify_all();
    for (const Outbound& s : fx.sends) {
      // A failed redrive send marks the target down; the next adoption
      // round re-derives the redrive set from the intact ledger.
      if (!SendToShard(s.shard, s.type, s.payload).ok()) {
        fx.finalize_adoption = false;
        break;
      }
    }
    if (fx.finalize_adoption) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = ranges_.find(fx.adopted_range);
      if (it != ranges_.end() &&
          it->second.generation == fx.adopted_generation) {
        auto sh = shards_.find(it->second.owner);
        if (sh != shards_.end() && sh->second.alive) {
          it->second.serving = true;
          stats_.failovers += 1;
          last_failover_ = std::chrono::steady_clock::now();
          last_failover_unix_ = UnixSeconds();
        }
      }
      cv_.notify_all();
    }
  }
}

void Coordinator::MonitorLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<uint64_t> expired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_ || shutdown_) continue;
      auto now = std::chrono::steady_clock::now();
      for (const auto& [id, shard] : shards_) {
        if (shard.alive && now - shard.last_frame > options_.heartbeat_timeout) {
          expired.push_back(id);
        }
      }
      stats_.heartbeat_timeouts += expired.size();
    }
    for (uint64_t id : expired) {
      OnShardDown(id, "heartbeat deadline exceeded");
    }
  }
}

void Coordinator::ReapLocked(Shard* shard) {
  if (shard->pid > 0 && !shard->reaped) {
    int st = 0;
    ::waitpid(shard->pid, &st, 0);
    shard->reaped = true;
  }
}

// --- failover -------------------------------------------------------------

void Coordinator::OnShardDown(uint64_t shard_id, const std::string& why) {
  struct DeadRange {
    uint64_t range = 0;
    uint64_t generation = 0;
  };
  std::vector<DeadRange> dead_ranges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shards_.find(shard_id);
    if (it == shards_.end() || !it->second.alive) return;
    Shard& shard = it->second;
    shard.alive = false;
    stats_.shard_deaths += 1;
    // SIGKILL defensively: an EOF means the process is gone already, but a
    // heartbeat-deadline death may be a SIGSTOP-wedged process that would
    // otherwise wake up later and double-serve its ranges.
    if (shard.pid > 0) ::kill(shard.pid, SIGKILL);
    if (shard.fd >= 0) ::shutdown(shard.fd, SHUT_RDWR);
    ReapLocked(&shard);
    if (shutdown_) {
      cv_.notify_all();
      return;
    }
    if (!options_.failover_enabled) {
      fatal_ = Status::Internal("shard " + std::to_string(shard_id) +
                                " died with failover disabled: " + why);
      cv_.notify_all();
      return;
    }
    for (auto& [r, range] : ranges_) {
      if (range.owner == shard_id) {
        range.serving = false;
        range.generation += 1;
        dead_ranges.push_back({r, range.generation});
      }
    }
  }
  cv_.notify_all();

  for (const DeadRange& dr : dead_ranges) {
    // The dead shard's shipped chain is final: close the replica WAL and
    // clone the range's files into a fresh bootstrap envelope.
    replica_->Finalize(dr.range);
    Result<std::string> dir =
        replica_->PrepareAdoptionDir(dr.range, dr.generation);
    if (!dir.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      fatal_ = dir.status();
      cv_.notify_all();
      return;
    }
    uint64_t survivor = 0;
    std::string payload;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = ranges_.find(dr.range);
      if (it == ranges_.end() || it->second.generation != dr.generation) {
        continue;  // a newer failover superseded this one
      }
      size_t best = SIZE_MAX;
      bool found = false;
      for (const auto& [sid, shard] : shards_) {
        if (!shard.alive) continue;
        size_t owned = 0;
        for (const auto& [r, range] : ranges_) {
          if (range.owner == sid) ++owned;
        }
        if (owned < best) {
          best = owned;
          survivor = sid;
          found = true;
        }
      }
      if (!found) {
        fatal_ = Status::Internal("no surviving shard to adopt range " +
                                  std::to_string(dr.range));
        cv_.notify_all();
        return;
      }
      it->second.owner = survivor;
      payload = EncodeAssignRange(BuildAssignment(it->second, *dir));
    }
    (void)SendToShard(survivor, MessageType::kAdoptRange, payload);
  }
  cv_.notify_all();
}

// --- frame handlers -------------------------------------------------------

void Coordinator::TerminalizeLocked(RangeState* range, int64_t id,
                                    uint64_t* counter, bool live) {
  auto it = range->pending_where.find(id);
  if (it == range->pending_where.end()) {
    // Already terminal. During replay reconciliation that is expected (the
    // live disposition beat the shard's death); from a live sink it would
    // be an exactly-once violation.
    if (live) stats_.duplicate_terminals += 1;
    return;
  }
  if (it->second == kInCarryover) {
    range->carryover.erase(id);
  } else {
    auto t = range->tickets.find(it->second);
    if (t != range->tickets.end()) {
      t->second.pending.erase(id);
      if (t->second.done && t->second.pending.empty()) {
        range->tickets.erase(t);
      }
    }
  }
  range->pending_where.erase(it);
  *counter += 1;
}

void Coordinator::ApplyDispositionLocked(RangeState* range,
                                         const serve::BatchDisposition& d,
                                         bool live) {
  for (int64_t id : d.assigned) {
    TerminalizeLocked(range, id, &stats_.assigned, live);
  }
  for (int64_t id : d.unmatched) {
    TerminalizeLocked(range, id, &stats_.unmatched, live);
  }
  for (int64_t id : d.failed) {
    TerminalizeLocked(range, id, &stats_.failed, live);
  }
  for (int64_t id : d.dropped) {
    TerminalizeLocked(range, id, &stats_.dropped_appeals, live);
  }
  for (int64_t id : d.appealed) {
    auto it = range->pending_where.find(id);
    if (it == range->pending_where.end()) {
      // An appeal for an id the ledger no longer tracks. Live, that is an
      // invariant breach (the id was already terminalized). During adoption
      // replay it is expected: replayed batches are a prefix of what the
      // live stream already applied, so a replayed appeal may refer to an id
      // a later live batch consumed from carryover and terminalized.
      if (live) stats_.reconcile_mismatches += 1;
      continue;
    }
    if (it->second != kInCarryover) {
      auto t = range->tickets.find(it->second);
      if (t != range->tickets.end()) {
        t->second.pending.erase(id);
        if (t->second.done && t->second.pending.empty()) {
          range->tickets.erase(t);
        }
      }
      it->second = kInCarryover;
      range->carryover.insert(id);
    }
  }
}

void Coordinator::ReconcileAdoptionLocked(RangeState* range,
                                          const RangeReady& ready,
                                          FrameEffects* fx) {
  // An adopted range must come up from the shipped bootstrap envelope —
  // every assignment anchors a checkpoint (and ships it) before its first
  // commit, so a cold adoption means replication lost the envelope.
  if (!ready.restored) stats_.reconcile_mismatches += 1;
  // 1. Replay dispositions apply idempotently: only ids the ledger still
  //    holds pending change state; everything else was already counted
  //    from the live stream before the shard died.
  for (const serve::BatchDisposition& d : ready.replay_log) {
    ApplyDispositionLocked(range, d, /*live=*/false);
  }
  // 2. Day outcomes that committed durably but whose kDayClosed frame was
  //    lost with the shard.
  for (const auto& [day, utility] : ready.replayed_day_closes) {
    range->day_utility.emplace(day, utility);
  }
  range->day_close_sent = false;  // any in-flight close died with the shard
  // 3. The restored carryover is the service's authoritative pending set;
  //    after step 1 the ledger must agree.
  std::set<int64_t> restored(ready.carryover_ids.begin(),
                             ready.carryover_ids.end());
  if (restored != range->carryover) {
    stats_.reconcile_mismatches += 1;
  }
  // 4. Re-align the day cursor, then redrive what is still pending. The
  //    kOpenDay (if any) precedes the redriven kSubmitBatch frames on the
  //    FIFO socket.
  if (day_open_ && (!ready.day_open || ready.day < current_day_)) {
    fx->sends.push_back({range->owner, MessageType::kOpenDay,
                         EncodePair(range->range, current_day_)});
  }
  std::vector<uint64_t> completed;
  for (auto& [ticket_id, ticket] : range->tickets) {
    if (ticket.done) continue;
    std::vector<sim::Request> remaining;
    for (const sim::Request& r : ticket.requests) {
      if (ticket.pending.count(r.id) != 0) remaining.push_back(r);
    }
    if (remaining.empty()) {
      // Fully resolved by replay (terminal or appealed into carryover);
      // the dead shard's kTicketDone will never arrive.
      if (ticket.pending.empty()) completed.push_back(ticket_id);
      continue;
    }
    ticket.requests = remaining;
    SubmitBatch redo;
    redo.range = range->range;
    redo.ticket = ticket_id;
    redo.requests = remaining;
    fx->sends.push_back({range->owner, MessageType::kSubmitBatch,
                         EncodeSubmitBatch(redo)});
    stats_.redriven_tickets += 1;
    stats_.redriven_requests += remaining.size();
  }
  for (uint64_t id : completed) range->tickets.erase(id);
  fx->finalize_adoption = true;
  fx->adopted_range = range->range;
  fx->adopted_generation = range->generation;
}

void Coordinator::HandleFrameLocked(uint64_t shard_id, uint8_t type,
                                    const std::string& payload,
                                    FrameEffects* fx) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHeartbeat: {
      auto pair = DecodePair(payload);
      if (pair.ok()) {
        shards_[shard_id].health_state = pair->second;
        stats_.heartbeats += 1;
      }
      break;
    }
    case MessageType::kDisposition: {
      auto msg = DecodeDispositionMsg(payload);
      if (!msg.ok()) break;
      auto it = ranges_.find(msg->range);
      if (it != ranges_.end()) {
        ApplyDispositionLocked(&it->second, msg->disposition, /*live=*/true);
      }
      break;
    }
    case MessageType::kTicketDone: {
      auto msg = DecodeTicketDone(payload);
      if (!msg.ok()) break;
      auto it = ranges_.find(msg->range);
      if (it == ranges_.end()) break;
      RangeState& range = it->second;
      for (int64_t id : msg->shed_ids) {
        TerminalizeLocked(&range, id, &stats_.shed, /*live=*/true);
      }
      auto t = range.tickets.find(msg->ticket);
      if (t != range.tickets.end()) {
        t->second.done = true;
        if (t->second.pending.empty()) {
          range.tickets.erase(t);
        } else {
          // Acked ticket with pending ids: its dispositions were lost on
          // the FIFO socket — impossible unless the contract broke.
          stats_.reconcile_mismatches += 1;
        }
      }
      break;
    }
    case MessageType::kDayClosed: {
      auto msg = DecodeDayClosed(payload);
      if (!msg.ok()) break;
      auto it = ranges_.find(msg->range);
      if (it != ranges_.end()) {
        it->second.day_utility.emplace(msg->day, msg->utility);
        it->second.day_close_sent = false;
      }
      break;
    }
    case MessageType::kWalShip: {
      auto msg = DecodeShipBytes(payload);
      if (!msg.ok()) break;
      Status s = replica_->AppendWalRecord(msg->range, msg->seq, msg->bytes);
      if (!s.ok()) {
        fatal_ = s;
      } else {
        stats_.wal_records_shipped += 1;
        if (wal_bytes_counter_ != nullptr) {
          wal_bytes_counter_->Increment(msg->bytes.size());
        }
      }
      break;
    }
    case MessageType::kCheckpointShip: {
      auto msg = DecodeShipBytes(payload);
      if (!msg.ok()) break;
      Status s = replica_->PutCheckpoint(msg->range, msg->seq, msg->bytes);
      if (!s.ok()) {
        fatal_ = s;
      } else {
        stats_.checkpoints_shipped += 1;
      }
      break;
    }
    case MessageType::kRangeReady: {
      auto msg = DecodeRangeReady(payload);
      if (!msg.ok()) break;
      auto it = ranges_.find(msg->range);
      if (it == ranges_.end()) break;
      RangeState& range = it->second;
      if (range.generation == 0) {
        range.serving = true;  // initial assignment
      } else if (!range.serving) {
        ReconcileAdoptionLocked(&range, *msg, fx);
      }
      break;
    }
    case MessageType::kStateDump: {
      auto msg = DecodeStateDump(payload);
      if (!msg.ok()) break;
      auto it = ranges_.find(msg->range);
      if (it != ranges_.end()) {
        it->second.state_dump = std::move(*msg);
        it->second.state_dump_ready = true;
      }
      break;
    }
    case MessageType::kShutdownAck: {
      auto pair = DecodePair(payload);
      if (pair.ok()) shards_[shard_id].shutdown_acked = true;
      break;
    }
    default:
      break;  // unknown/unexpected frames are ignored, not fatal
  }
  SyncMetricsLocked();
}

// --- pump -----------------------------------------------------------------

size_t Coordinator::BatchesPerDay() const {
  size_t max_batches = 0;
  for (const auto& [r, range] : ranges_) {
    for (const auto& day : range.schedule) {
      max_batches = std::max(max_batches, day.size());
    }
  }
  return max_batches;
}

Status Coordinator::OpenDay(size_t day) {
  std::vector<Outbound> sends;
  {
    std::unique_lock<std::mutex> lock(mu_);
    LACB_RETURN_NOT_OK(WaitLocked(
        &lock,
        [this] {
          for (const auto& [r, range] : ranges_) {
            if (!range.serving) return false;
          }
          return true;
        },
        "open-day fleet quiesce"));
    current_day_ = day;
    day_open_ = true;
    for (auto& [r, range] : ranges_) {
      range.day_close_sent = false;
      sends.push_back({range.owner, MessageType::kOpenDay,
                       EncodePair(r, day)});
    }
  }
  for (const Outbound& s : sends) {
    (void)SendToShard(s.shard, s.type, s.payload);
  }
  return Status::OK();
}

Status Coordinator::SubmitScheduledBatch(size_t batch_index) {
  for (uint64_t r = 0; r < num_ranges_; ++r) {
    uint64_t ticket_id = 0;
    uint64_t owner = 0;
    std::string payload;
    {
      std::unique_lock<std::mutex> lock(mu_);
      RangeState& range = ranges_[r];
      if (current_day_ >= range.schedule.size() ||
          batch_index >= range.schedule[current_day_].size()) {
        continue;  // short range: nothing scheduled in this slot
      }
      LACB_RETURN_NOT_OK(WaitLocked(
          &lock,
          [this, &range] {
            return range.serving &&
                   OutstandingTicketsLocked(range) < options_.window;
          },
          "ticket window"));
      const std::vector<sim::Request>& requests =
          range.schedule[current_day_][batch_index];
      if (requests.empty()) continue;
      ticket_id = next_ticket_++;
      Ticket& ticket = range.tickets[ticket_id];
      ticket.requests = requests;
      for (const sim::Request& req : requests) {
        ticket.pending.insert(req.id);
        range.pending_where[req.id] = ticket_id;
      }
      stats_.submitted += requests.size();
      owner = range.owner;
      SubmitBatch msg;
      msg.range = r;
      msg.ticket = ticket_id;
      msg.requests = requests;
      payload = EncodeSubmitBatch(msg);
      SyncMetricsLocked();
    }
    if (!payload.empty()) {
      // A failed send is not an error for the pump: the shard's death has
      // been recorded and the failover path redrives this ticket from the
      // ledger.
      (void)SendToShard(owner, MessageType::kSubmitBatch, payload);
    }
  }
  return Status::OK();
}

Status Coordinator::CloseDay() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    LACB_RETURN_NOT_OK(WaitLocked(
        &lock,
        [this] {
          for (const auto& [r, range] : ranges_) {
            if (!range.serving || OutstandingTicketsLocked(range) > 0) {
              return false;
            }
          }
          return true;
        },
        "close-day drain"));
    day_open_ = false;
  }
  // Send/resend the close until every range has the day's outcome: an
  // adoption in mid-close resets day_close_sent, and a close that
  // committed durably on a dead shard surfaces via replayed_day_closes.
  auto deadline = std::chrono::steady_clock::now() + options_.op_timeout;
  for (;;) {
    std::vector<Outbound> sends;
    bool done = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!fatal_.ok()) return fatal_;
      for (auto& [r, range] : ranges_) {
        if (range.day_utility.count(current_day_) != 0) continue;
        done = false;
        if (range.serving && !range.day_close_sent &&
            OutstandingTicketsLocked(range) == 0) {
          range.day_close_sent = true;
          sends.push_back({range.owner, MessageType::kCloseDay,
                           EncodePair(r, current_day_)});
        }
      }
    }
    if (done) return Status::OK();
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Internal("close-day timed out");
    }
    for (const Outbound& s : sends) {
      (void)SendToShard(s.shard, s.type, s.payload);
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

Status Coordinator::Shutdown() {
  std::vector<uint64_t> targets;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_ || shutdown_) return Status::OK();
    LACB_RETURN_NOT_OK(WaitLocked(
        &lock,
        [this] {
          for (const auto& [r, range] : ranges_) {
            if (!range.serving || OutstandingTicketsLocked(range) > 0) {
              return false;
            }
          }
          return true;
        },
        "shutdown drain"));
    shutdown_ = true;
    for (const auto& [id, shard] : shards_) {
      if (shard.alive) targets.push_back(id);
    }
  }
  for (uint64_t id : targets) {
    (void)SendToShard(id, MessageType::kShutdown, EncodePair(id, 0));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    Status s = WaitLocked(
        &lock,
        [this, &targets] {
          for (uint64_t id : targets) {
            const Shard& shard = shards_[id];
            if (shard.alive && !shard.shutdown_acked) return false;
          }
          return true;
        },
        "shutdown acks");
    if (!s.ok()) return s;
    stats_.pending = PendingCountLocked();
    SyncMetricsLocked();
  }
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  for (auto& [id, shard] : shards_) {
    if (shard.reader.joinable()) shard.reader.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, shard] : shards_) {
    ReapLocked(&shard);
    if (shard.fd >= 0) {
      CloseFd(shard.fd);
      shard.fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  return fatal_;
}

Status Coordinator::KillShard(uint64_t shard_id, bool sigstop) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(shard_id);
  if (it == shards_.end() || !it->second.alive || it->second.pid <= 0) {
    return Status::NotFound("shard " + std::to_string(shard_id) +
                            " is not running");
  }
  // SIGSTOP leaves the socket open: only the heartbeat deadline can
  // detect this death mode. SIGKILL closes the socket, so the reader's
  // EOF path fires first.
  if (::kill(it->second.pid, sigstop ? SIGSTOP : SIGKILL) != 0) {
    return Status::IoError("kill failed");
  }
  return Status::OK();
}

Status Coordinator::InjectChurn(uint64_t range,
                                const scenario::ChurnEvent& event) {
  uint64_t owner = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = ranges_.find(range);
    if (it == ranges_.end()) return Status::NotFound("no such range");
    RangeState* state = &it->second;
    LACB_RETURN_NOT_OK(WaitLocked(
        &lock, [state] { return state->serving; }, "churn target serving"));
    owner = state->owner;
  }
  ChurnMsg msg;
  msg.range = range;
  msg.day = event.day;
  msg.batch_offset = event.batch_offset;
  msg.broker = event.broker;
  msg.kind = static_cast<uint8_t>(event.kind);
  msg.cold_capacity = event.cold_capacity;
  return SendToShard(owner, MessageType::kChurnEvent, EncodeChurnMsg(msg));
}

Result<StateDump> Coordinator::FetchState(uint64_t range) {
  uint64_t owner = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = ranges_.find(range);
    if (it == ranges_.end()) return Status::NotFound("no such range");
    RangeState* state = &it->second;
    LACB_RETURN_NOT_OK(WaitLocked(
        &lock,
        [this, state] {
          return state->serving && OutstandingTicketsLocked(*state) == 0;
        },
        "state-dump quiesce"));
    state->state_dump_ready = false;
    owner = state->owner;
  }
  LACB_RETURN_NOT_OK(
      SendToShard(owner, MessageType::kRequestState, EncodePair(range, 0)));
  std::unique_lock<std::mutex> lock(mu_);
  RangeState* state = &ranges_.find(range)->second;
  LACB_RETURN_NOT_OK(WaitLocked(
      &lock, [state] { return state->state_dump_ready; }, "state dump"));
  return state->state_dump;
}

// --- introspection --------------------------------------------------------

std::vector<double> Coordinator::FleetDailyUtility() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t days = 0;
  for (const auto& [r, range] : ranges_) {
    for (const auto& [day, u] : range.day_utility) {
      days = std::max(days, static_cast<size_t>(day) + 1);
    }
  }
  std::vector<double> out(days, 0.0);
  for (const auto& [r, range] : ranges_) {
    for (const auto& [day, u] : range.day_utility) {
      out[day] += u;
    }
  }
  return out;
}

uint64_t Coordinator::PendingCountLocked() const {
  uint64_t pending = 0;
  for (const auto& [r, range] : ranges_) {
    pending += range.pending_where.size();
  }
  return pending;
}

size_t Coordinator::OutstandingTicketsLocked(const RangeState& range) const {
  size_t n = 0;
  for (const auto& [id, ticket] : range.tickets) {
    if (!ticket.done) ++n;
  }
  return n;
}

FleetStats Coordinator::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats out = stats_;
  out.pending = PendingCountLocked();
  return out;
}

double Coordinator::last_failover_unix_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_failover_unix_;
}

obs::HealthReport Coordinator::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t alive = 0;
  size_t degraded_shards = 0;
  for (const auto& [id, shard] : shards_) {
    if (shard.alive) {
      ++alive;
      if (shard.health_state > 0) ++degraded_shards;
    }
  }
  size_t dead = shards_.size() - alive;
  size_t unserved = 0;
  for (const auto& [r, range] : ranges_) {
    if (!range.serving) ++unserved;
  }
  obs::HealthReport report;
  std::string detail =
      "shards=" + std::to_string(alive) + "/" +
      std::to_string(shards_.size()) + " dead=" + std::to_string(dead) +
      " failovers=" + std::to_string(stats_.failovers) + " last_failover=" +
      (last_failover_unix_ > 0.0 ? std::to_string(last_failover_unix_)
                                 : std::string("never"));
  const bool recent_failover =
      last_failover_unix_ > 0.0 &&
      std::chrono::steady_clock::now() - last_failover_ <
          std::chrono::seconds(5);
  if (!fatal_.ok() || alive == 0 ||
      (unserved > 0 && !options_.failover_enabled)) {
    report.state = obs::HealthState::kUnhealthy;
    report.detail = detail + (fatal_.ok() ? "" : " fatal=" + fatal_.ToString());
  } else if (dead > 0 || degraded_shards > 0 || unserved > 0 ||
             recent_failover) {
    report.state = obs::HealthState::kDegraded;
    report.detail = detail + " unserved_ranges=" + std::to_string(unserved);
  } else {
    report.state = obs::HealthState::kHealthy;
    report.detail = detail;
  }
  return report;
}

// --- helpers --------------------------------------------------------------

Status Coordinator::WaitLocked(std::unique_lock<std::mutex>* lock,
                               const std::function<bool()>& done,
                               const char* what) {
  auto deadline = std::chrono::steady_clock::now() + options_.op_timeout;
  while (!done()) {
    if (!fatal_.ok()) return fatal_;
    if (std::chrono::steady_clock::now() > deadline) {
      return Status::Internal(std::string("coordinator wait timed out: ") +
                              what);
    }
    cv_.wait_for(*lock, std::chrono::milliseconds(50));
  }
  return Status::OK();
}

void Coordinator::RegisterMetrics() {
  routed_counter_ = &registry_->GetCounter(
      "cluster.submitted", "Requests routed into shard tickets");
  shed_counter_ = &registry_->GetCounter(
      "cluster.shed", "Requests shed at shard admission");
  assigned_counter_ = &registry_->GetCounter(
      "cluster.assigned", "Fleet-wide requests committed to a broker");
  unmatched_counter_ = &registry_->GetCounter(
      "cluster.unmatched", "Fleet-wide requests left unassigned");
  failed_counter_ = &registry_->GetCounter(
      "cluster.failed", "Fleet-wide requests in failed batches");
  dropped_counter_ = &registry_->GetCounter(
      "cluster.dropped_appeals", "Fleet-wide appeals dropped terminally");
  redriven_counter_ = &registry_->GetCounter(
      "cluster.redriven_requests", "Requests redriven after a failover");
  deaths_counter_ = &registry_->GetCounter(
      "cluster.shard_deaths", "Shard processes declared dead");
  failovers_counter_ = &registry_->GetCounter(
      "cluster.failovers", "Range adoptions completed");
  heartbeats_counter_ = &registry_->GetCounter(
      "cluster.heartbeats", "Heartbeat frames received");
  hb_timeout_counter_ = &registry_->GetCounter(
      "cluster.heartbeat_timeouts", "Shards declared dead by deadline");
  wal_shipped_counter_ = &registry_->GetCounter(
      "cluster.wal_records_shipped", "WAL records replicated to the "
      "coordinator");
  wal_bytes_counter_ = &registry_->GetCounter(
      "cluster.wal_bytes_shipped", "Replicated WAL bytes");
  ckpt_shipped_counter_ = &registry_->GetCounter(
      "cluster.checkpoints_shipped", "Checkpoint envelopes replicated");
  duplicate_counter_ = &registry_->GetCounter(
      "cluster.duplicate_terminals",
      "Live dispositions for already-terminal requests (must stay 0)");
  shards_alive_gauge_ = &registry_->GetGauge(
      "cluster.shards_alive", "Shard processes currently alive");
  pending_gauge_ = &registry_->GetGauge(
      "cluster.pending_requests", "Requests in tickets or carryover");
}

void Coordinator::SyncMetricsLocked() {
  if (registry_ == nullptr || routed_counter_ == nullptr) return;
  auto bump = [](obs::Counter* c, uint64_t now, uint64_t* prev) {
    if (now > *prev) c->Increment(now - *prev);
    *prev = now;
  };
  bump(routed_counter_, stats_.submitted, &synced_.submitted);
  bump(shed_counter_, stats_.shed, &synced_.shed);
  bump(assigned_counter_, stats_.assigned, &synced_.assigned);
  bump(unmatched_counter_, stats_.unmatched, &synced_.unmatched);
  bump(failed_counter_, stats_.failed, &synced_.failed);
  bump(dropped_counter_, stats_.dropped_appeals, &synced_.dropped_appeals);
  bump(redriven_counter_, stats_.redriven_requests,
       &synced_.redriven_requests);
  bump(deaths_counter_, stats_.shard_deaths, &synced_.shard_deaths);
  bump(failovers_counter_, stats_.failovers, &synced_.failovers);
  bump(heartbeats_counter_, stats_.heartbeats, &synced_.heartbeats);
  bump(hb_timeout_counter_, stats_.heartbeat_timeouts,
       &synced_.heartbeat_timeouts);
  bump(wal_shipped_counter_, stats_.wal_records_shipped,
       &synced_.wal_records_shipped);
  bump(ckpt_shipped_counter_, stats_.checkpoints_shipped,
       &synced_.checkpoints_shipped);
  bump(duplicate_counter_, stats_.duplicate_terminals,
       &synced_.duplicate_terminals);
  size_t alive = 0;
  for (const auto& [id, shard] : shards_) {
    if (shard.alive) ++alive;
  }
  shards_alive_gauge_->Set(static_cast<double>(alive));
  pending_gauge_->Set(static_cast<double>(PendingCountLocked()));
}

}  // namespace lacb::cluster
