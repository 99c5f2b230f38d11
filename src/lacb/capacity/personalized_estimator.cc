#include "lacb/capacity/personalized_estimator.h"

#include <algorithm>
#include <utility>

#include "lacb/obs/obs.h"

namespace lacb::capacity {

PersonalizedCapacityEstimator::PersonalizedCapacityEstimator(
    PersonalizedEstimatorConfig config, std::unique_ptr<bandit::NeuralUcb> base,
    size_t num_brokers)
    : config_(std::move(config)),
      base_(std::move(base)),
      personal_(num_brokers),
      observations_(num_brokers, 0),
      history_(num_brokers) {}

Result<PersonalizedCapacityEstimator> PersonalizedCapacityEstimator::Create(
    const PersonalizedEstimatorConfig& config, size_t num_brokers) {
  if (num_brokers == 0) {
    return Status::InvalidArgument("estimator pool needs >= 1 broker");
  }
  LACB_ASSIGN_OR_RETURN(bandit::NeuralUcb base,
                        bandit::NeuralUcb::Create(config.bandit));
  return PersonalizedCapacityEstimator(
      config, std::make_unique<bandit::NeuralUcb>(std::move(base)),
      num_brokers);
}

Result<double> PersonalizedCapacityEstimator::Estimate(
    size_t broker, const bandit::Vector& context) {
  if (broker >= personal_.size()) {
    return Status::OutOfRange("broker index out of range");
  }
  if (personal_[broker] != nullptr) {
    return personal_[broker]->SelectValue(context);
  }
  return base_->SelectValue(context);
}

Result<bandit::NeuralUcb> PersonalizedCapacityEstimator::TransferBase(
    size_t broker) const {
  // Layer transfer: copy the base network, freeze all but the last layer.
  nn::Mlp net = base_->network();
  for (size_t l = 0; l + 1 < net.num_layers(); ++l) {
    LACB_RETURN_NOT_OK(net.SetLayerTrainable(l, false));
  }
  bandit::NeuralUcbConfig cfg = config_.bandit;
  cfg.seed = config_.bandit.seed + 17 * (broker + 1);
  // Brokers see ~one observation per day; the base's buffer size would
  // leave the fine-tuned layer untrained for weeks.
  cfg.batch_size = std::max<size_t>(1, config_.personal_batch_size);
  cfg.learning_rate = config_.personal_learning_rate;
  cfg.train_epochs = config_.personal_train_epochs;
  return bandit::NeuralUcb::CreateWithNetwork(cfg, std::move(net));
}

Status PersonalizedCapacityEstimator::MaybePersonalize(size_t broker) {
  if (personal_[broker] != nullptr) return Status::OK();
  if (observations_[broker] < config_.personalization_threshold) {
    return Status::OK();
  }
  if (base_->training_passes() < config_.base_training_passes) {
    return Status::OK();
  }
  LACB_ASSIGN_OR_RETURN(bandit::NeuralUcb personal, TransferBase(broker));
  // The base's covariance comes along with its network: exploration
  // confidence is part of what the transfer carries over.
  LACB_RETURN_NOT_OK(personal.CopyCovariance(*base_));
  // Warm-start the fine-tune: replay the broker's own history so the last
  // layer adapts to it immediately rather than waiting for future days.
  for (const HistoryEntry& h : history_[broker]) {
    LACB_RETURN_NOT_OK(
        personal.Observe(h.context, h.workload, h.signup_rate));
  }
  LACB_RETURN_NOT_OK(personal.FlushTraining());
  personal_[broker] =
      std::make_unique<bandit::NeuralUcb>(std::move(personal));
  ++personalized_count_;
  obs::ActiveRegistry()
      .GetGauge("estimator.personalized_brokers")
      .Set(static_cast<double>(personalized_count_));
  return Status::OK();
}

Status PersonalizedCapacityEstimator::Update(size_t broker,
                                             const bandit::Vector& context,
                                             double workload,
                                             double signup_rate) {
  if (broker >= personal_.size()) {
    return Status::OutOfRange("broker index out of range");
  }
  ++observations_[broker];
  if (history_[broker].size() < config_.history_capacity) {
    history_[broker].push_back(HistoryEntry{context, workload, signup_rate});
  }
  if (personal_[broker] != nullptr) {
    LACB_RETURN_NOT_OK(
        personal_[broker]->Observe(context, workload, signup_rate));
    if (config_.continue_base_training) {
      LACB_RETURN_NOT_OK(base_->Observe(context, workload, signup_rate));
    }
    return Status::OK();
  }
  LACB_RETURN_NOT_OK(base_->Observe(context, workload, signup_rate));
  return MaybePersonalize(broker);
}

Status PersonalizedCapacityEstimator::SaveState(
    persist::ByteWriter* w) const {
  LACB_RETURN_NOT_OK(base_->SaveState(w));
  w->U64(personal_.size());
  std::vector<uint64_t> observations(observations_.begin(),
                                     observations_.end());
  w->VecU64(observations);
  for (const std::vector<HistoryEntry>& h : history_) {
    w->U64(h.size());
    for (const HistoryEntry& e : h) {
      w->VecF64(e.context);
      w->F64(e.workload);
      w->F64(e.signup_rate);
    }
  }
  for (const auto& p : personal_) {
    w->Bool(p != nullptr);
    if (p != nullptr) LACB_RETURN_NOT_OK(p->SaveState(w));
  }
  return Status::OK();
}

Status PersonalizedCapacityEstimator::LoadState(persist::ByteReader* r) {
  LACB_RETURN_NOT_OK(base_->LoadState(r));
  LACB_ASSIGN_OR_RETURN(uint64_t num_brokers, r->U64());
  if (num_brokers != personal_.size()) {
    return Status::InvalidArgument("estimator broker count mismatch");
  }
  LACB_ASSIGN_OR_RETURN(std::vector<uint64_t> observations, r->VecU64());
  if (observations.size() != personal_.size()) {
    return Status::InvalidArgument("estimator observation count mismatch");
  }
  observations_.assign(observations.begin(), observations.end());
  for (std::vector<HistoryEntry>& h : history_) {
    LACB_ASSIGN_OR_RETURN(uint64_t n, r->U64());
    h.clear();
    for (uint64_t i = 0; i < n; ++i) {
      HistoryEntry e;
      LACB_ASSIGN_OR_RETURN(e.context, r->VecF64());
      LACB_ASSIGN_OR_RETURN(e.workload, r->F64());
      LACB_ASSIGN_OR_RETURN(e.signup_rate, r->F64());
      h.push_back(std::move(e));
    }
  }
  personalized_count_ = 0;
  for (size_t broker = 0; broker < personal_.size(); ++broker) {
    LACB_ASSIGN_OR_RETURN(bool has_personal, r->Bool());
    if (!has_personal) {
      personal_[broker] = nullptr;
      continue;
    }
    // Rebuild the shell with the live transfer recipe, then overwrite all
    // of its mutable state.
    LACB_ASSIGN_OR_RETURN(bandit::NeuralUcb personal, TransferBase(broker));
    LACB_RETURN_NOT_OK(personal.LoadState(r));
    personal_[broker] =
        std::make_unique<bandit::NeuralUcb>(std::move(personal));
    ++personalized_count_;
  }
  return Status::OK();
}

}  // namespace lacb::capacity
