#include "lacb/bandit/neural_ucb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "lacb/obs/obs.h"
#include "lacb/persist/serializers.h"

namespace lacb::bandit {

namespace {
// UCB widths are dimensionless scores well under 1 for a trained net;
// finer buckets than the latency default make the histogram readable.
const std::vector<double>& WidthBounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double v = 1e-4; v < 2000.0; v *= 4.0) b.push_back(v);
    return b;
  }();
  return bounds;
}

Status ValidateConfig(const NeuralUcbConfig& config) {
  if (config.arm_values.empty()) {
    return Status::InvalidArgument("NeuralUcb needs at least one arm value");
  }
  if (config.context_dim == 0) {
    return Status::InvalidArgument("NeuralUcb context_dim must be positive");
  }
  if (config.alpha < 0.0) {
    return Status::InvalidArgument("NeuralUcb alpha must be non-negative");
  }
  if (config.lambda <= 0.0) {
    return Status::InvalidArgument("NeuralUcb lambda must be positive");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("NeuralUcb batch_size must be positive");
  }
  return Status::OK();
}

nn::MlpConfig NetworkConfig(const NeuralUcbConfig& config) {
  nn::MlpConfig net;
  // Input: context, one RBF activation per arm anchor, and the raw scaled
  // value (see NeuralUcb::NetInput).
  net.layer_sizes.push_back(config.context_dim + config.arm_values.size() + 1);
  for (size_t h : config.hidden_sizes) net.layer_sizes.push_back(h);
  return net;
}

// Radial-basis features over the arm anchors make non-monotone reward
// shapes in the workload dimension (the capacity knee's interior peak)
// linearly separable for the network, while remaining smooth in the
// arbitrary observed workloads w fed back by Alg. 2. Bandwidth = the median
// arm spacing.
double RbfBandwidth(const std::vector<double>& arm_values) {
  if (arm_values.size() <= 1) return 1.0;
  std::vector<double> sorted = arm_values;
  std::sort(sorted.begin(), sorted.end());
  return std::max(1e-9, sorted[sorted.size() / 2] -
                            sorted[sorted.size() / 2 - 1]);
}

}  // namespace

NeuralUcb::NeuralUcb(NeuralUcbConfig config, nn::Mlp net)
    : config_(std::move(config)),
      net_(std::move(net)),
      rbf_bandwidth_(RbfBandwidth(config_.arm_values)),
      optimizer_(config_.learning_rate),
      train_rng_(config_.seed + 0x5eed) {
  size_t d = net_.num_params();
  if (config_.covariance == CovarianceMode::kFullMatrix) {
    full_cov_ = std::make_unique<la::ShermanMorrisonInverse>(
        la::ShermanMorrisonInverse::Create(d, config_.lambda).value());
  } else {
    diag_cov_ = std::make_unique<la::DiagonalInverse>(
        la::DiagonalInverse::Create(d, config_.lambda).value());
  }
}

Result<NeuralUcb> NeuralUcb::Create(const NeuralUcbConfig& config) {
  LACB_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  LACB_ASSIGN_OR_RETURN(nn::Mlp net, nn::Mlp::Create(NetworkConfig(config), &rng));
  return NeuralUcb(config, std::move(net));
}

Result<NeuralUcb> NeuralUcb::CreateWithNetwork(const NeuralUcbConfig& config,
                                               nn::Mlp network) {
  LACB_RETURN_NOT_OK(ValidateConfig(config));
  if (network.input_dim() !=
      config.context_dim + config.arm_values.size() + 1) {
    return Status::InvalidArgument(
        "NeuralUcb network input dim must be context_dim + |arms| + 1");
  }
  return NeuralUcb(config, std::move(network));
}

Status NeuralUcb::NetInput(const Vector& context, double value,
                           Vector* in) const {
  if (context.size() != config_.context_dim) {
    return Status::InvalidArgument("NeuralUcb context dimension mismatch");
  }
  in->reserve(context.size() + config_.arm_values.size() + 1);
  in->assign(context.begin(), context.end());
  for (double anchor : config_.arm_values) {
    double z = (value - anchor) / rbf_bandwidth_;
    in->push_back(std::exp(-0.5 * z * z));
  }
  in->push_back(value * config_.value_scale);
  return Status::OK();
}

Status NeuralUcb::Width2(const std::vector<Vector>& grads,
                         Vector* width2) const {
  if (diag_cov_ != nullptr) return diag_cov_->QuadraticForms(grads, width2);
  width2->resize(grads.size());
  for (size_t k = 0; k < grads.size(); ++k) {
    LACB_ASSIGN_OR_RETURN((*width2)[k], full_cov_->QuadraticForm(grads[k]));
  }
  return Status::OK();
}

Status NeuralUcb::CovarianceUpdate(const Vector& grad) {
  if (full_cov_ != nullptr) return full_cov_->RankOneUpdate(grad);
  return diag_cov_->RankOneUpdate(grad);
}

Result<double> NeuralUcb::UcbScore(const Vector& context,
                                   double value) const {
  std::vector<Vector> in(1);
  LACB_RETURN_NOT_OK(NetInput(context, value, &in[0]));
  Vector mean, width2;
  std::vector<Vector> grad;
  LACB_RETURN_NOT_OK(net_.OutputGradients(in, &mean, &grad));
  LACB_RETURN_NOT_OK(Width2(grad, &width2));
  return mean[0] + config_.alpha * std::sqrt(width2[0]);
}

Result<double> NeuralUcb::SelectValue(const Vector& context) {
  LACB_TRACE_SPAN("bandit_select");
  // Alg. 1 lines 6-9: pick the arm with the maximal upper confidence bound,
  // then update D with the chosen arm's gradient (line 12). One batched
  // forward+backward scores every arm, and their widths are summed side by
  // side; the buffers are reused across calls.
  thread_local std::vector<Vector> inputs;
  thread_local Vector means;
  thread_local std::vector<Vector> grads;
  thread_local Vector width2;
  const std::vector<double>& arms = config_.arm_values;
  inputs.resize(arms.size());
  for (size_t a = 0; a < arms.size(); ++a) {
    LACB_RETURN_NOT_OK(NetInput(context, arms[a], &inputs[a]));
  }
  LACB_RETURN_NOT_OK(net_.OutputGradients(inputs, &means, &grads));
  LACB_RETURN_NOT_OK(Width2(grads, &width2));
  size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < arms.size(); ++a) {
    double score = means[a] + config_.alpha * std::sqrt(width2[a]);
    if (score > best_score) {
      best_score = score;
      best = a;
    }
  }
  // The chosen arm's confidence width α·√(gᵀD⁻¹g) before folding g into D:
  // the exploration-health series (wide = still exploring, narrow =
  // exploiting) every future perf PR compares against.
  obs::MetricRegistry& registry = obs::ActiveRegistry();
  registry.GetCounter("bandit.neural_ucb.pulls").Increment();
  registry.GetHistogram("bandit.neural_ucb.ucb_width", WidthBounds())
      .Record(config_.alpha * std::sqrt(std::max(0.0, width2[best])));
  LACB_RETURN_NOT_OK(CovarianceUpdate(grads[best]));
  return arms[best];
}

Result<double> NeuralUcb::PredictReward(const Vector& context,
                                        double value) const {
  Vector in;
  LACB_RETURN_NOT_OK(NetInput(context, value, &in));
  return net_.Forward(in);
}

Status NeuralUcb::Observe(const Vector& context, double value,
                          double reward) {
  LACB_TRACE_SPAN("bandit_update");
  obs::ActiveRegistry().GetCounter("bandit.neural_ucb.observations")
      .Increment();
  Vector in;
  LACB_RETURN_NOT_OK(NetInput(context, value, &in));
  buffer_.push_back(nn::Example{std::move(in), reward});
  if (buffer_.size() >= config_.batch_size) {
    LACB_RETURN_NOT_OK(FlushTraining());
  }
  return Status::OK();
}

Status NeuralUcb::CopyCovariance(const NeuralUcb& other) {
  if (other.net_.num_params() != net_.num_params()) {
    return Status::InvalidArgument("CopyCovariance: parameter-count mismatch");
  }
  if ((full_cov_ != nullptr) != (other.full_cov_ != nullptr)) {
    return Status::InvalidArgument("CopyCovariance: covariance-mode mismatch");
  }
  if (full_cov_ != nullptr) {
    *full_cov_ = *other.full_cov_;
  } else {
    *diag_cov_ = *other.diag_cov_;
  }
  return Status::OK();
}

Status NeuralUcb::FlushTraining() {
  if (buffer_.empty()) return Status::OK();
  LACB_TRACE_SPAN("bandit_train");
  obs::ActiveRegistry().GetCounter("bandit.neural_ucb.training_passes")
      .Increment();
  if (config_.replay_capacity == 0) {
    // Paper-literal Alg. 1: train on the fresh buffer only.
    for (size_t e = 0; e < config_.train_epochs; ++e) {
      LACB_ASSIGN_OR_RETURN(Vector grad,
                            net_.LossGradient(buffer_, config_.lambda));
      LACB_RETURN_NOT_OK(optimizer_.Step(grad, &net_));
    }
    buffer_.clear();
    ++training_passes_;
    return Status::OK();
  }
  // Fold the buffer into the replay (ring eviction beyond capacity).
  for (nn::Example& ex : buffer_) {
    if (replay_.size() < config_.replay_capacity) {
      replay_.push_back(std::move(ex));
    } else {
      replay_[replay_next_] = std::move(ex);
      replay_next_ = (replay_next_ + 1) % config_.replay_capacity;
    }
  }
  buffer_.clear();
  // Minibatch SGD over the replay; the L2 term of Eq. 6 applies per step.
  // The minibatch is a list of replay rows; the buffers are reused.
  size_t mb = std::max<size_t>(1, config_.minibatch_size);
  thread_local std::vector<size_t> rows;
  thread_local Vector grad;
  for (size_t e = 0; e < config_.train_epochs; ++e) {
    rows.clear();
    size_t take = std::min(mb, replay_.size());
    for (size_t i = 0; i < take; ++i) {
      rows.push_back(static_cast<size_t>(train_rng_.UniformInt(
          0, static_cast<int64_t>(replay_.size()) - 1)));
    }
    LACB_RETURN_NOT_OK(net_.LossGradient(replay_, rows, config_.lambda, &grad));
    // LossGradient sums over the batch; normalize so the step size is
    // independent of the minibatch size.
    double inv = 1.0 / static_cast<double>(take);
    for (double& g : grad) g *= inv;
    LACB_RETURN_NOT_OK(optimizer_.Step(grad, &net_));
  }
  ++training_passes_;
  return Status::OK();
}

namespace {

void WriteExamples(persist::ByteWriter* w,
                   const std::vector<nn::Example>& examples) {
  w->U64(examples.size());
  for (const nn::Example& ex : examples) {
    w->VecF64(ex.x);
    w->F64(ex.target);
  }
}

Result<std::vector<nn::Example>> ReadExamples(persist::ByteReader* r) {
  LACB_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  std::vector<nn::Example> out;
  for (uint64_t i = 0; i < n; ++i) {
    nn::Example ex;
    LACB_ASSIGN_OR_RETURN(ex.x, r->VecF64());
    LACB_ASSIGN_OR_RETURN(ex.target, r->F64());
    out.push_back(std::move(ex));
  }
  return out;
}

}  // namespace

Status NeuralUcb::SaveState(persist::ByteWriter* w) const {
  w->VecF64(net_.params());
  const std::vector<bool>& mask = net_.trainable_mask();
  w->U64(mask.size());
  for (bool t : mask) w->Bool(t);
  if (full_cov_ != nullptr) {
    w->U8(0);
    persist::WriteMatrix(w, full_cov_->inverse());
  } else {
    w->U8(1);
    w->VecF64(diag_cov_->diagonal());
  }
  w->VecF64(optimizer_.velocity());
  WriteExamples(w, buffer_);
  WriteExamples(w, replay_);
  w->U64(replay_next_);
  w->Str(train_rng_.SaveState());
  w->U64(training_passes_);
  return Status::OK();
}

Status NeuralUcb::LoadState(persist::ByteReader* r) {
  LACB_ASSIGN_OR_RETURN(Vector params, r->VecF64());
  LACB_RETURN_NOT_OK(net_.SetParams(std::move(params)));
  LACB_ASSIGN_OR_RETURN(uint64_t mask_size, r->U64());
  for (uint64_t l = 0; l < mask_size; ++l) {
    LACB_ASSIGN_OR_RETURN(bool trainable, r->Bool());
    LACB_RETURN_NOT_OK(net_.SetLayerTrainable(static_cast<size_t>(l),
                                              trainable));
  }
  LACB_ASSIGN_OR_RETURN(uint8_t mode, r->U8());
  if (mode == 0) {
    LACB_ASSIGN_OR_RETURN(la::Matrix inv, persist::ReadMatrix(r));
    if (full_cov_ == nullptr) {
      return Status::InvalidArgument(
          "NeuralUcb state has full covariance but bandit is diagonal");
    }
    LACB_ASSIGN_OR_RETURN(
        *full_cov_, la::ShermanMorrisonInverse::FromInverse(std::move(inv)));
  } else {
    LACB_ASSIGN_OR_RETURN(Vector diag, r->VecF64());
    if (diag_cov_ == nullptr) {
      return Status::InvalidArgument(
          "NeuralUcb state has diagonal covariance but bandit is full");
    }
    LACB_ASSIGN_OR_RETURN(*diag_cov_,
                          la::DiagonalInverse::FromDiagonal(std::move(diag)));
  }
  LACB_ASSIGN_OR_RETURN(Vector velocity, r->VecF64());
  optimizer_.set_velocity(std::move(velocity));
  LACB_ASSIGN_OR_RETURN(buffer_, ReadExamples(r));
  LACB_ASSIGN_OR_RETURN(replay_, ReadExamples(r));
  LACB_ASSIGN_OR_RETURN(uint64_t replay_next, r->U64());
  replay_next_ = static_cast<size_t>(replay_next);
  LACB_ASSIGN_OR_RETURN(std::string rng_state, r->Str());
  LACB_RETURN_NOT_OK(train_rng_.LoadState(rng_state));
  LACB_ASSIGN_OR_RETURN(uint64_t passes, r->U64());
  training_passes_ = static_cast<size_t>(passes);
  return Status::OK();
}

}  // namespace lacb::bandit
