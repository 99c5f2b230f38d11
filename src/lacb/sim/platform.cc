#include "lacb/sim/platform.h"

#include <algorithm>
#include <utility>

#include "lacb/persist/serializers.h"

namespace lacb::sim {

Platform::Platform(DatasetConfig config, std::vector<Broker> brokers,
                   std::vector<std::vector<std::vector<Request>>> requests,
                   UtilityModel utility_model, Rng rng)
    : config_(std::move(config)),
      brokers_(std::move(brokers)),
      requests_(std::move(requests)),
      utility_model_(std::move(utility_model)),
      rng_(rng) {}

Result<Platform> Platform::Create(const DatasetConfig& config) {
  if (config.num_brokers == 0 || config.num_requests == 0 ||
      config.num_days == 0) {
    return Status::InvalidArgument(
        "Platform requires brokers, requests and days > 0");
  }
  if (config.imbalance <= 0.0) {
    return Status::InvalidArgument("Platform imbalance must be positive");
  }
  Rng rng(config.seed);
  std::vector<Broker> brokers = GenerateBrokers(config, &rng);
  auto requests = GenerateRequests(config, &rng);
  LACB_ASSIGN_OR_RETURN(UtilityModel um,
                        UtilityModel::Create(brokers, config.utility));
  return Platform(config, std::move(brokers), std::move(requests),
                  std::move(um), rng.Fork(3));
}

Status Platform::SetRequestSchedule(
    std::vector<std::vector<std::vector<Request>>> schedule) {
  if (day_open_) {
    return Status::FailedPrecondition(
        "cannot replace the request schedule while a day is open");
  }
  if (schedule.size() != requests_.size()) {
    return Status::InvalidArgument(
        "replacement schedule must cover the same number of days");
  }
  requests_ = std::move(schedule);
  return Status::OK();
}

Status Platform::SetBrokerActive(size_t b, bool active) {
  if (b >= brokers_.size()) {
    return Status::OutOfRange("broker index out of range");
  }
  if (active_.empty()) {
    if (active) return Status::OK();  // already the default
    active_.assign(brokers_.size(), 1);
  }
  active_[b] = active ? 1 : 0;
  any_inactive_ = false;
  for (uint8_t a : active_) {
    if (a == 0) {
      any_inactive_ = true;
      break;
    }
  }
  return Status::OK();
}

Status Platform::RetireBrokerDay(size_t b) {
  if (!day_open_) return Status::FailedPrecondition("no day is open");
  if (b >= brokers_.size()) {
    return Status::OutOfRange("broker index out of range");
  }
  committed_.erase(
      std::remove_if(committed_.begin(), committed_.end(),
                     [b](const CommittedEdge& e) { return e.broker == b; }),
      committed_.end());
  workloads_today_[b] = 0.0;
  brokers_[b].workload_today = 0.0;
  return Status::OK();
}

Status Platform::StartDay(size_t day) {
  if (day_open_) {
    return Status::FailedPrecondition("previous day is still open");
  }
  if (day >= requests_.size()) {
    return Status::OutOfRange("day beyond dataset horizon");
  }
  day_open_ = true;
  external_day_ = false;
  current_day_ = day;
  today_batches_ = requests_[day];
  // Re-queued appeals from the previous day's tail join the first batch.
  if (!appeal_overflow_.empty() && !today_batches_.empty()) {
    auto& first = today_batches_.front();
    first.insert(first.end(), appeal_overflow_.begin(),
                 appeal_overflow_.end());
    appeal_overflow_.clear();
  }
  batch_committed_.assign(today_batches_.size(), false);
  workloads_today_.assign(brokers_.size(), 0.0);
  committed_.clear();
  appeals_today_ = 0;
  for (Broker& b : brokers_) b.workload_today = 0.0;
  return Status::OK();
}

Status Platform::StartDayExternal(size_t day) {
  if (day_open_) {
    return Status::FailedPrecondition("previous day is still open");
  }
  if (day >= requests_.size()) {
    return Status::OutOfRange("day beyond dataset horizon");
  }
  day_open_ = true;
  external_day_ = true;
  current_day_ = day;
  // No internal schedule: batches arrive via CommitExternalBatch, so
  // EndDay's all-batches-committed check is trivially satisfied.
  today_batches_.clear();
  batch_committed_.clear();
  workloads_today_.assign(brokers_.size(), 0.0);
  committed_.clear();
  appeals_today_ = 0;
  external_commits_.clear();
  for (Broker& b : brokers_) b.workload_today = 0.0;
  return Status::OK();
}

Result<std::vector<Request>> Platform::BatchRequests(size_t batch) const {
  if (!day_open_) return Status::FailedPrecondition("no day is open");
  if (batch >= today_batches_.size()) {
    return Status::OutOfRange("batch index out of range");
  }
  return today_batches_[batch];
}

Result<la::Matrix> Platform::BatchUtility(size_t batch) const {
  if (!day_open_) return Status::FailedPrecondition("no day is open");
  if (batch >= today_batches_.size()) {
    return Status::OutOfRange("batch index out of range");
  }
  return utility_model_.UtilityMatrix(today_batches_[batch]);
}

Status Platform::CommitAssignment(size_t batch,
                                  const std::vector<int64_t>& assignment) {
  if (!day_open_) return Status::FailedPrecondition("no day is open");
  if (external_day_) {
    return Status::FailedPrecondition(
        "day was opened for external commits; use CommitExternalBatch");
  }
  if (batch >= today_batches_.size()) {
    return Status::OutOfRange("batch index out of range");
  }
  if (batch_committed_[batch]) {
    return Status::FailedPrecondition("batch already committed");
  }
  const std::vector<Request>& reqs = today_batches_[batch];
  if (assignment.size() != reqs.size()) {
    return Status::InvalidArgument(
        "assignment size does not match batch size");
  }
  for (int64_t b : assignment) {
    if (b != -1 &&
        (b < 0 || static_cast<size_t>(b) >= brokers_.size())) {
      return Status::OutOfRange("assignment references unknown broker");
    }
  }
  batch_committed_[batch] = true;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (assignment[i] == -1) continue;
    size_t b = static_cast<size_t>(assignment[i]);
    double u = utility_model_.Utility(reqs[i], brokers_[b]);
    // Appeal: dissatisfied clients reject low-affinity brokers up front.
    if (config_.appeal_rate > 0.0 &&
        rng_.Bernoulli(config_.appeal_rate * (1.0 - u))) {
      ++appeals_today_;
      if (batch + 1 < today_batches_.size()) {
        today_batches_[batch + 1].push_back(reqs[i]);
      } else {
        appeal_overflow_.push_back(reqs[i]);
      }
      continue;
    }
    workloads_today_[b] += 1.0;
    brokers_[b].workload_today = workloads_today_[b];
    committed_.push_back(CommittedEdge{b, u});
  }
  return Status::OK();
}

Result<ExternalCommitOutcome> Platform::CommitExternalBatch(
    const std::vector<Request>& requests,
    const std::vector<int64_t>& assignment, uint64_t commit_token) {
  if (!day_open_ || !external_day_) {
    return Status::FailedPrecondition("no external day is open");
  }
  if (assignment.size() != requests.size()) {
    return Status::InvalidArgument(
        "assignment size does not match batch size");
  }
  // Idempotency check first: a duplicate token returns the cached outcome
  // before any RNG draw or workload mutation, so a retried commit is
  // byte-for-byte free of side effects.
  if (commit_token != 0) {
    auto it = external_commits_.find(commit_token);
    if (it != external_commits_.end()) {
      ExternalCommitOutcome cached = it->second;
      cached.duplicate = true;
      return cached;
    }
  }
  for (int64_t b : assignment) {
    if (b != -1 && (b < 0 || static_cast<size_t>(b) >= brokers_.size())) {
      return Status::OutOfRange("assignment references unknown broker");
    }
  }
  ExternalCommitOutcome out;
  // Mirrors CommitAssignment byte-for-byte (same utility lookups, same
  // RNG draw order) so identical batch compositions replay identically;
  // only the appeal destination differs — the caller re-queues.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (assignment[i] == -1) continue;
    size_t b = static_cast<size_t>(assignment[i]);
    double u = utility_model_.Utility(requests[i], brokers_[b]);
    if (config_.appeal_rate > 0.0 &&
        rng_.Bernoulli(config_.appeal_rate * (1.0 - u))) {
      ++appeals_today_;
      out.appealed.push_back(requests[i]);
      continue;
    }
    workloads_today_[b] += 1.0;
    brokers_[b].workload_today = workloads_today_[b];
    committed_.push_back(CommittedEdge{b, u});
    out.accepted.push_back(CommittedEdge{b, u});
  }
  if (commit_token != 0) {
    external_commits_.emplace(commit_token, out);
  }
  return out;
}

const ExternalCommitOutcome* Platform::FindExternalCommit(
    uint64_t commit_token) const {
  if (commit_token == 0) return nullptr;
  auto it = external_commits_.find(commit_token);
  return it == external_commits_.end() ? nullptr : &it->second;
}

Result<DayOutcome> Platform::EndDay() {
  if (!day_open_) return Status::FailedPrecondition("no day is open");
  for (size_t batch = 0; batch < today_batches_.size(); ++batch) {
    if (!batch_committed_[batch]) {
      return Status::FailedPrecondition(
          "all batches must be committed before EndDay");
    }
  }
  DayOutcome out;
  out.per_broker_utility.assign(brokers_.size(), 0.0);
  out.per_broker_workload = workloads_today_;
  out.appeals = appeals_today_;

  // Realized utility: the quality factor at the broker's final daily
  // workload scales each of the day's assignments.
  for (const CommittedEdge& e : committed_) {
    double factor =
        signup_model_.QualityFactor(brokers_[e.broker], workloads_today_[e.broker]);
    double realized = e.utility * factor;
    out.realized_utility += realized;
    out.per_broker_utility[e.broker] += realized;
  }

  // Feedback triples: context is captured at the day's state, reward is the
  // observed (noisy) daily sign-up rate.
  out.trials.reserve(brokers_.size());
  for (size_t b = 0; b < brokers_.size(); ++b) {
    TrialTriple t;
    t.broker = b;
    t.context = brokers_[b].ContextVector();
    t.workload = workloads_today_[b];
    t.signup_rate =
        signup_model_.ObserveDailySignupRate(brokers_[b], t.workload, &rng_);
    out.trials.push_back(std::move(t));
  }

  // Roll work profiles forward: exponential trailing windows (7/14/30/90d)
  // absorb today's activity; recent_workload drives tomorrow's fatigue.
  for (size_t b = 0; b < brokers_.size(); ++b) {
    Broker& br = brokers_[b];
    double w = workloads_today_[b];
    double signups = out.trials[b].signup_rate * w;
    static constexpr double kHorizons[4] = {7.0, 14.0, 30.0, 90.0};
    for (size_t k = 0; k < 4; ++k) {
      double decay = (kHorizons[k] - 1.0) / kHorizons[k];
      br.profile.served_clients[k] =
          br.profile.served_clients[k] * decay + w;
      br.profile.transactions[k] =
          br.profile.transactions[k] * decay + signups;
      br.profile.dialogue_rounds[k] =
          br.profile.dialogue_rounds[k] * decay + 0.4 * w;
      br.profile.app_consultations[k] =
          br.profile.app_consultations[k] * decay + 0.6 * w;
    }
    br.recent_workload = br.recent_workload * (6.0 / 7.0) + w * (1.0 / 7.0);
    br.workload_today = 0.0;
  }

  day_open_ = false;
  external_day_ = false;
  return out;
}

namespace {

void WriteWindowsState(persist::ByteWriter* w, const Windows& win) {
  for (double v : win) w->F64(v);
}

Status ReadWindowsState(persist::ByteReader* r, Windows* win) {
  for (size_t k = 0; k < win->size(); ++k) {
    LACB_ASSIGN_OR_RETURN((*win)[k], r->F64());
  }
  return Status::OK();
}

void WriteEdges(persist::ByteWriter* w,
                const std::vector<CommittedEdge>& edges) {
  w->U64(edges.size());
  for (const CommittedEdge& e : edges) {
    w->U64(e.broker);
    w->F64(e.utility);
  }
}

Result<std::vector<CommittedEdge>> ReadEdges(persist::ByteReader* r) {
  LACB_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  std::vector<CommittedEdge> out;
  for (uint64_t i = 0; i < n; ++i) {
    CommittedEdge e;
    LACB_ASSIGN_OR_RETURN(uint64_t broker, r->U64());
    e.broker = static_cast<size_t>(broker);
    LACB_ASSIGN_OR_RETURN(e.utility, r->F64());
    out.push_back(e);
  }
  return out;
}

}  // namespace

Status Platform::SaveState(persist::ByteWriter* w) const {
  if (day_open_ && !external_day_) {
    return Status::FailedPrecondition(
        "cannot checkpoint an open internal day");
  }
  w->Str(rng_.SaveState());
  w->Bool(day_open_);
  w->Bool(external_day_);
  w->U64(current_day_);
  w->VecF64(workloads_today_);
  WriteEdges(w, committed_);
  persist::WriteRequests(w, appeal_overflow_);
  w->U64(appeals_today_);
  // The external-commit cache, sorted by token so the encoded bytes are
  // deterministic (unordered_map iteration order is not).
  std::vector<uint64_t> tokens;
  tokens.reserve(external_commits_.size());
  for (const auto& [token, outcome] : external_commits_) {
    tokens.push_back(token);
  }
  std::sort(tokens.begin(), tokens.end());
  w->U64(tokens.size());
  for (uint64_t token : tokens) {
    const ExternalCommitOutcome& outcome = external_commits_.at(token);
    w->U64(token);
    persist::WriteRequests(w, outcome.appealed);
    WriteEdges(w, outcome.accepted);
    w->Bool(outcome.duplicate);
  }
  w->U64(brokers_.size());
  for (const Broker& b : brokers_) {
    w->F64(b.workload_today);
    w->F64(b.recent_workload);
    WriteWindowsState(w, b.profile.served_clients);
    WriteWindowsState(w, b.profile.transactions);
    WriteWindowsState(w, b.profile.dialogue_rounds);
    WriteWindowsState(w, b.profile.app_consultations);
  }
  // Churn activity mask (empty = every broker active, the default).
  w->U64(active_.size());
  for (uint8_t a : active_) w->Bool(a != 0);
  return Status::OK();
}

Status Platform::LoadState(persist::ByteReader* r) {
  LACB_ASSIGN_OR_RETURN(std::string rng_state, r->Str());
  LACB_RETURN_NOT_OK(rng_.LoadState(rng_state));
  LACB_ASSIGN_OR_RETURN(day_open_, r->Bool());
  LACB_ASSIGN_OR_RETURN(external_day_, r->Bool());
  LACB_ASSIGN_OR_RETURN(uint64_t day, r->U64());
  current_day_ = static_cast<size_t>(day);
  LACB_ASSIGN_OR_RETURN(workloads_today_, r->VecF64());
  LACB_ASSIGN_OR_RETURN(committed_, ReadEdges(r));
  LACB_ASSIGN_OR_RETURN(appeal_overflow_, persist::ReadRequests(r));
  LACB_ASSIGN_OR_RETURN(uint64_t appeals, r->U64());
  appeals_today_ = static_cast<size_t>(appeals);
  external_commits_.clear();
  LACB_ASSIGN_OR_RETURN(uint64_t num_commits, r->U64());
  for (uint64_t i = 0; i < num_commits; ++i) {
    LACB_ASSIGN_OR_RETURN(uint64_t token, r->U64());
    ExternalCommitOutcome outcome;
    LACB_ASSIGN_OR_RETURN(outcome.appealed, persist::ReadRequests(r));
    LACB_ASSIGN_OR_RETURN(outcome.accepted, ReadEdges(r));
    LACB_ASSIGN_OR_RETURN(outcome.duplicate, r->Bool());
    external_commits_.emplace(token, std::move(outcome));
  }
  LACB_ASSIGN_OR_RETURN(uint64_t num_brokers, r->U64());
  if (num_brokers != brokers_.size()) {
    return Status::InvalidArgument("platform broker count mismatch");
  }
  for (Broker& b : brokers_) {
    LACB_ASSIGN_OR_RETURN(b.workload_today, r->F64());
    LACB_ASSIGN_OR_RETURN(b.recent_workload, r->F64());
    LACB_RETURN_NOT_OK(ReadWindowsState(r, &b.profile.served_clients));
    LACB_RETURN_NOT_OK(ReadWindowsState(r, &b.profile.transactions));
    LACB_RETURN_NOT_OK(ReadWindowsState(r, &b.profile.dialogue_rounds));
    LACB_RETURN_NOT_OK(ReadWindowsState(r, &b.profile.app_consultations));
  }
  LACB_ASSIGN_OR_RETURN(uint64_t mask_size, r->U64());
  if (mask_size != 0 && mask_size != brokers_.size()) {
    return Status::InvalidArgument("platform activity-mask size mismatch");
  }
  active_.clear();
  any_inactive_ = false;
  for (uint64_t i = 0; i < mask_size; ++i) {
    LACB_ASSIGN_OR_RETURN(bool a, r->Bool());
    if (active_.empty()) active_.assign(brokers_.size(), 1);
    active_[i] = a ? 1 : 0;
    if (!a) any_inactive_ = true;
  }
  // External days carry no internal batch schedule; clear it so a restored
  // mid-day platform matches the pre-crash one exactly.
  today_batches_.clear();
  batch_committed_.clear();
  return Status::OK();
}

}  // namespace lacb::sim
