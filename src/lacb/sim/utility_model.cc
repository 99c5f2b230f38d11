#include "lacb/sim/utility_model.h"

#include <algorithm>
#include <cmath>

namespace lacb::sim {

namespace {

// Pair-noise key, split into its request and broker halves (the sum wraps
// mod 2^64, so adding the halves gives the same key in either order).
uint64_t RequestNoiseKey(uint64_t seed, int64_t request_id) {
  return seed +
         0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(request_id) + 1);
}

uint64_t BrokerNoiseKey(int64_t broker_id) {
  return 0xd1b54a32d192ed03ULL * (static_cast<uint64_t>(broker_id) + 1);
}

// Deterministic noise in [0,1]: SplitMix64 over the pair key, stable across
// calls and batch orders.
double PairNoise(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

// u_{r,b} from its terms; `taste` is the raw housing-embedding dot product.
inline double Blend(const UtilityModelConfig& config, double quality,
                    double district, double taste, double pickiness,
                    double noise) {
  // Embeddings are unit-scale; map the dot product from [-1,1] to [0,1].
  taste = std::clamp(0.5 * (taste + 1.0), 0.0, 1.0);
  // Affinity: district familiarity plus housing-taste alignment.
  double affinity = 0.5 * district + 0.5 * taste;
  affinity = (1.0 - pickiness) * affinity + pickiness * affinity * affinity;
  double total_weight =
      config.quality_weight + config.affinity_weight + config.noise_weight;
  double u = (config.quality_weight * quality +
              config.affinity_weight * affinity + config.noise_weight * noise) /
             total_weight;
  return std::clamp(u, 0.0, 1.0);
}

}  // namespace

Result<UtilityModel> UtilityModel::Create(const std::vector<Broker>& brokers,
                                          const UtilityModelConfig& config) {
  if (brokers.empty()) {
    return Status::InvalidArgument("UtilityModel needs at least one broker");
  }
  double w = config.quality_weight + config.affinity_weight +
             config.noise_weight;
  if (w <= 0.0) {
    return Status::InvalidArgument("UtilityModel weights must sum > 0");
  }
  double max_q = 0.0;
  for (const Broker& b : brokers) {
    if (b.id < 0 || static_cast<size_t>(b.id) >= brokers.size()) {
      return Status::InvalidArgument("UtilityModel expects dense 0-based ids");
    }
    max_q = std::max(max_q, b.latent.base_quality * b.latent.popularity);
  }
  if (max_q <= 0.0) max_q = 1.0;
  UtilityModel model;
  model.config_ = config;
  model.quality_score_.assign(brokers.size(), 0.0);
  for (const Broker& b : brokers) {
    double raw = b.latent.base_quality * b.latent.popularity / max_q;
    // Compress the long popularity tail: the platform's ranking separates
    // good brokers from weak ones but does not rate one broker above every
    // district's local specialist — without this, a single broker wins
    // every request and the measured concentration becomes degenerate
    // (hundreds of × the city mean instead of the paper's ~12×).
    model.quality_score_[static_cast<size_t>(b.id)] =
        std::pow(raw, config.quality_compression);
  }

  const size_t n = brokers.size();
  model.column_quality_.resize(n);
  model.noise_key_.resize(n);
  for (size_t b = 0; b < n; ++b) {
    model.column_quality_[b] =
        model.quality_score_[static_cast<size_t>(brokers[b].id)];
    model.noise_key_[b] = BrokerNoiseKey(brokers[b].id);
    model.embedding_width_ =
        std::max(model.embedding_width_,
                 brokers[b].preference.housing_embedding.size());
    model.num_districts_ = std::max(
        model.num_districts_, brokers[b].preference.district_affinity.size());
  }
  // Zero padding is exact: a padded term adds x·0 = ±0 to a sum that is
  // never −0, which leaves it unchanged for finite x.
  model.embedding_.assign(model.embedding_width_ * n, 0.0);
  model.district_affinity_.assign((model.num_districts_ + 1) * n, 0.0);
  for (size_t b = 0; b < n; ++b) {
    const Preference& pref = brokers[b].preference;
    for (size_t i = 0; i < pref.housing_embedding.size(); ++i) {
      model.embedding_[i * n + b] = pref.housing_embedding[i];
    }
    for (size_t d = 0; d < pref.district_affinity.size(); ++d) {
      model.district_affinity_[d * n + b] = pref.district_affinity[d];
    }
  }
  return model;
}

double UtilityModel::Utility(const Request& request,
                             const Broker& broker) const {
  size_t id = static_cast<size_t>(broker.id);
  double quality = id < quality_score_.size() ? quality_score_[id] : 0.0;
  double district = 0.0;
  if (request.district < broker.preference.district_affinity.size()) {
    district = broker.preference.district_affinity[request.district];
  }
  double taste = 0.0;
  size_t dims = std::min(request.housing_embedding.size(),
                         broker.preference.housing_embedding.size());
  for (size_t i = 0; i < dims; ++i) {
    taste += request.housing_embedding[i] *
             broker.preference.housing_embedding[i];
  }
  double noise = PairNoise(RequestNoiseKey(config_.noise_seed, request.id) +
                           BrokerNoiseKey(broker.id));
  return Blend(config_, quality, district, taste, request.pickiness, noise);
}

la::Matrix UtilityModel::UtilityMatrix(
    const std::vector<Request>& requests) const {
  const size_t n = column_quality_.size();
  // Locals, so the row stores below cannot alias what the loops read.
  const UtilityModelConfig config = config_;
  const double* quality = column_quality_.data();
  const uint64_t* noise_key = noise_key_.data();
  const double* embedding = embedding_.data();
  la::Matrix m(requests.size(), n);
  for (size_t r = 0; r < requests.size(); ++r) {
    const Request& request = requests[r];
    const double* x = request.housing_embedding.data();
    const size_t dims =
        std::min(request.housing_embedding.size(), embedding_width_);
    const double* district = district_affinity_.data() +
                             std::min(request.district, num_districts_) * n;
    const uint64_t key = RequestNoiseKey(config.noise_seed, request.id);
    const double pickiness = request.pickiness;
    auto blend = [&](size_t b, double taste) {
      return Blend(config, quality[b], district[b], taste, pickiness,
                   PairNoise(key + noise_key[b]));
    };
    double* row = m.RowPtr(r);
    size_t b = 0;
    // Four brokers at a time: each taste dot product is summed in the same
    // dimension order as Utility(), and the four independent sums advance
    // side by side instead of one add chain per pair.
    for (; b + 4 <= n; b += 4) {
      double taste[4] = {0.0, 0.0, 0.0, 0.0};
      for (size_t i = 0; i < dims; ++i) {
        const double* e = embedding + i * n + b;
        for (size_t j = 0; j < 4; ++j) taste[j] += x[i] * e[j];
      }
      for (size_t j = 0; j < 4; ++j) row[b + j] = blend(b + j, taste[j]);
    }
    for (; b < n; ++b) {
      double taste = 0.0;
      for (size_t i = 0; i < dims; ++i) taste += x[i] * embedding[i * n + b];
      row[b] = blend(b, taste);
    }
  }
  return m;
}

}  // namespace lacb::sim
