#include "lacb/cluster/shard_server.h"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "lacb/cluster/frame.h"
#include "lacb/core/policy_suite.h"
#include "lacb/obs/exposition.h"

namespace lacb::cluster {

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)) {}

ShardServer::~ShardServer() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_closed_ = true;
  }
  outbox_cv_.notify_all();
  if (outbox_thread_.joinable()) outbox_thread_.join();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  {
    std::lock_guard<std::mutex> lock(ranges_mu_);
    for (auto& [range, rt] : ranges_) {
      if (rt.service != nullptr) rt.service->Shutdown();
    }
  }
  if (fd_ >= 0) CloseFd(fd_);
}

void ShardServer::Enqueue(MessageType type, std::string payload) {
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    if (outbox_closed_ || outbox_failed_) return;
    outbox_.emplace_back(static_cast<uint8_t>(type), std::move(payload));
  }
  outbox_cv_.notify_one();
}

void ShardServer::OutboxLoop() {
  for (;;) {
    std::pair<uint8_t, std::string> item;
    {
      std::unique_lock<std::mutex> lock(outbox_mu_);
      outbox_cv_.wait(lock,
                      [this] { return !outbox_.empty() || outbox_closed_; });
      if (outbox_.empty()) return;  // closed and drained
      item = std::move(outbox_.front());
      outbox_.pop_front();
    }
    Status s = SendFrame(fd_, item.first, item.second);
    if (!s.ok()) {
      // The coordinator treats the broken socket as a shard death; stop
      // shipping and let the control loop's next read surface the error.
      std::lock_guard<std::mutex> lock(outbox_mu_);
      outbox_failed_ = true;
      outbox_.clear();
      return;
    }
  }
}

void ShardServer::HeartbeatLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    uint64_t state = 0;  // healthy
    {
      std::lock_guard<std::mutex> lock(ranges_mu_);
      for (const auto& [range, rt] : ranges_) {
        if (rt.service == nullptr) continue;
        obs::HealthReport report = rt.service->Health();
        state = std::max(state, static_cast<uint64_t>(report.state));
      }
    }
    Enqueue(MessageType::kHeartbeat, EncodePair(options_.shard_id, state));
    std::this_thread::sleep_for(options_.heartbeat_period);
  }
}

ShardServer::RangeRuntime* ShardServer::FindRange(uint64_t range) {
  std::lock_guard<std::mutex> lock(ranges_mu_);
  auto it = ranges_.find(range);
  return it == ranges_.end() ? nullptr : &it->second;
}

Status ShardServer::HandleAssignRange(const std::string& payload, bool adopt) {
  LACB_ASSIGN_OR_RETURN(AssignRange msg, DecodeAssignRange(payload));
  if (FindRange(msg.range) != nullptr) {
    return Status::AlreadyExists("range " + std::to_string(msg.range) +
                                 " already hosted");
  }

  serve::ServeOptions opts;
  opts.queue_capacity = msg.queue_capacity;
  opts.max_batch_size = msg.max_batch_size;
  opts.max_batch_delay = std::chrono::microseconds(msg.max_batch_delay_us);
  opts.num_workers = msg.num_workers;
  opts.checkpoint_dir = msg.checkpoint_dir;
  opts.checkpoint_interval_batches = msg.checkpoint_interval_batches;
  opts.wal_fsync = msg.wal_fsync;
  const uint64_t range = msg.range;
  opts.disposition_sink = [this, range](const serve::BatchDisposition& d) {
    DispositionMsg out;
    out.range = range;
    out.disposition = d;
    Enqueue(MessageType::kDisposition, EncodeDispositionMsg(out));
  };
  opts.wal_record_sink = [this, range](uint64_t seq, std::string_view record) {
    ShipBytes out;
    out.range = range;
    out.seq = seq;
    out.bytes.assign(record.data(), record.size());
    Enqueue(MessageType::kWalShip, EncodeShipBytes(out));
  };
  opts.checkpoint_sink = [this, range](uint64_t seq,
                                       const std::string& encoded) {
    ShipBytes out;
    out.range = range;
    out.seq = seq;
    out.bytes = encoded;
    Enqueue(MessageType::kCheckpointShip, EncodeShipBytes(out));
  };

  core::PolicySuiteConfig suite;
  suite.seed = msg.suite_seed;
  LACB_ASSIGN_OR_RETURN(
      auto service,
      serve::AssignmentService::Create(
          msg.config,
          core::SuitePolicyFactory(msg.config, suite, msg.policy_index),
          opts));
  LACB_RETURN_NOT_OK(service->Start());

  RangeReady ready;
  ready.range = range;
  const serve::RestoreInfo& info = service->restore_info();
  ready.restored = info.restored;
  ready.day = info.day;
  ready.day_open = info.day_open;
  ready.commits_today = info.batches_committed_today;
  ready.replayed_batches = info.replayed_batches;
  ready.replay_log = service->replay_log();
  ready.replayed_day_closes = service->replayed_day_closes();
  ready.carryover_ids = service->CarryoverRequestIds();
  (void)adopt;  // adoption differs only in what checkpoint_dir points at

  {
    std::lock_guard<std::mutex> lock(ranges_mu_);
    RangeRuntime& rt = ranges_[range];
    rt.range = range;
    rt.service = std::move(service);
  }
  Enqueue(MessageType::kRangeReady, EncodeRangeReady(ready));
  return Status::OK();
}

Status ShardServer::HandleOpenDay(const std::string& payload) {
  LACB_ASSIGN_OR_RETURN(auto pair, DecodePair(payload));
  RangeRuntime* rt = FindRange(pair.first);
  if (rt == nullptr) {
    return Status::NotFound("kOpenDay for unhosted range " +
                            std::to_string(pair.first));
  }
  return rt->service->OpenDay(pair.second);
}

Status ShardServer::HandleSubmitBatch(const std::string& payload) {
  LACB_ASSIGN_OR_RETURN(SubmitBatch msg, DecodeSubmitBatch(payload));
  RangeRuntime* rt = FindRange(msg.range);
  if (rt == nullptr) {
    return Status::NotFound("kSubmitBatch for unhosted range " +
                            std::to_string(msg.range));
  }
  TicketDone done;
  done.range = msg.range;
  done.ticket = msg.ticket;
  for (const sim::Request& request : msg.requests) {
    if (!rt->service->Submit(request)) done.shed_ids.push_back(request.id);
  }
  rt->service->Flush();
  LACB_RETURN_NOT_OK(rt->service->WaitIdle());
  LACB_RETURN_NOT_OK(rt->service->MaybeCheckpoint());
  // Every disposition of this ticket is already in the outbox (the sink
  // fires before the batch's units retire, i.e. before WaitIdle returned),
  // so the FIFO socket delivers them ahead of this kTicketDone.
  Enqueue(MessageType::kTicketDone, EncodeTicketDone(done));
  return Status::OK();
}

Status ShardServer::HandleCloseDay(const std::string& payload) {
  LACB_ASSIGN_OR_RETURN(auto pair, DecodePair(payload));
  RangeRuntime* rt = FindRange(pair.first);
  if (rt == nullptr) {
    return Status::NotFound("kCloseDay for unhosted range " +
                            std::to_string(pair.first));
  }
  LACB_ASSIGN_OR_RETURN(sim::DayOutcome outcome, rt->service->CloseDay());
  DayClosed closed;
  closed.range = pair.first;
  closed.day = pair.second;
  closed.utility = outcome.realized_utility;
  closed.appeals = outcome.appeals;
  Enqueue(MessageType::kDayClosed, EncodeDayClosed(closed));
  return Status::OK();
}

Status ShardServer::HandleChurnEvent(const std::string& payload) {
  LACB_ASSIGN_OR_RETURN(ChurnMsg msg, DecodeChurnMsg(payload));
  RangeRuntime* rt = FindRange(msg.range);
  if (rt == nullptr) {
    return Status::NotFound("kChurnEvent for unhosted range " +
                            std::to_string(msg.range));
  }
  scenario::ChurnEvent event;
  event.day = msg.day;
  event.batch_offset = msg.batch_offset;
  event.broker = msg.broker;
  event.kind = static_cast<scenario::ChurnKind>(msg.kind);
  event.cold_capacity = msg.cold_capacity;
  return rt->service->ApplyChurn(event);
}

Status ShardServer::HandleRequestState(const std::string& payload) {
  LACB_ASSIGN_OR_RETURN(auto pair, DecodePair(payload));
  RangeRuntime* rt = FindRange(pair.first);
  if (rt == nullptr) {
    return Status::NotFound("kRequestState for unhosted range " +
                            std::to_string(pair.first));
  }
  StateDump dump;
  dump.range = pair.first;
  LACB_ASSIGN_OR_RETURN(dump.platform_state,
                        rt->service->SerializePlatformState());
  LACB_ASSIGN_OR_RETURN(dump.replica_state,
                        rt->service->SerializeReplicaState(0));
  Enqueue(MessageType::kStateDump, EncodeStateDump(dump));
  return Status::OK();
}

Status ShardServer::HandleShutdown() {
  {
    std::lock_guard<std::mutex> lock(ranges_mu_);
    for (auto& [range, rt] : ranges_) {
      if (rt.service != nullptr) rt.service->Shutdown();
    }
  }
  Enqueue(MessageType::kShutdownAck, EncodePair(options_.shard_id, 0));
  stopping_.store(true, std::memory_order_release);
  return Status::OK();
}

Status ShardServer::Run() {
  LACB_ASSIGN_OR_RETURN(fd_, ConnectLoopback(options_.coordinator_port,
                                             ConnectRetry{}));
  Hello hello;
  hello.shard_id = options_.shard_id;
  hello.pid = static_cast<uint64_t>(::getpid());
  LACB_RETURN_NOT_OK(SendFrame(fd_, static_cast<uint8_t>(MessageType::kHello),
                               EncodeHello(hello)));
  outbox_thread_ = std::thread([this] { OutboxLoop(); });
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });

  Status result = Status::OK();
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<Frame> frame = ReadFrame(fd_);
    if (!frame.ok()) {
      result = frame.status();
      break;
    }
    Status s = Status::OK();
    switch (static_cast<MessageType>(frame->type)) {
      case MessageType::kAssignRange:
        s = HandleAssignRange(frame->payload, /*adopt=*/false);
        break;
      case MessageType::kAdoptRange:
        s = HandleAssignRange(frame->payload, /*adopt=*/true);
        break;
      case MessageType::kOpenDay:
        s = HandleOpenDay(frame->payload);
        break;
      case MessageType::kSubmitBatch:
        s = HandleSubmitBatch(frame->payload);
        break;
      case MessageType::kCloseDay:
        s = HandleCloseDay(frame->payload);
        break;
      case MessageType::kChurnEvent:
        s = HandleChurnEvent(frame->payload);
        break;
      case MessageType::kRequestState:
        s = HandleRequestState(frame->payload);
        break;
      case MessageType::kShutdown:
        s = HandleShutdown();
        break;
      default:
        s = Status::InvalidArgument("unexpected frame type " +
                                    std::to_string(frame->type));
        break;
    }
    if (!s.ok()) {
      result = s;
      break;
    }
  }

  stopping_.store(true, std::memory_order_release);
  // Drain the outbox before closing the socket: the kShutdownAck (and any
  // final dispositions) must reach the coordinator on a clean exit.
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_closed_ = true;
  }
  outbox_cv_.notify_all();
  if (outbox_thread_.joinable()) outbox_thread_.join();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  CloseFd(fd_);
  fd_ = -1;
  return result;
}

}  // namespace lacb::cluster
