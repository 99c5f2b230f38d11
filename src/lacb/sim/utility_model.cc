#include "lacb/sim/utility_model.h"

#include <algorithm>
#include <cmath>

#include "lacb/common/cpu.h"
#include "lacb/common/simd.h"

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

// Widest kernel vector; the packed tables' rows are padded to a multiple.
constexpr size_t kMaxLanes = 8;

// Plain data of one UtilityMatrix call, so a kernel entry takes nothing
// else: the packed tables (rows `stride` apart), the batch and its
// row-major |requests| × cols output.
struct RowArgs {
  UtilityModelConfig config;
  const double* quality;
  const uint64_t* noise_key;
  const double* embedding;
  const double* district_affinity;
  size_t cols, stride, embedding_width, num_districts;
  const Request* requests;
  size_t num_requests;
  double* out;
};

// std::clamp(v, 0.0, 1.0) lane by lane, NaN included: both comparisons are
// false for a NaN lane, which therefore passes through as it does there.
template <class V>
LACB_TILE void Clamp01(V& v) {
  const V zero = {};
  const V one = zero + 1.0;
  v = v < zero ? zero : (one < v ? one : v);
}

// Utility rows, L brokers per vector. Lane j of the vector at column b runs
// Blend(…, PairNoise(key + noise_key[b + j])) for broker b + j: the taste
// dot product summed from 0.0 in dimension order, then every step of
// Blend and PairNoise as written, in the same order. Integer lanes wrap mod
// 2^64 like the scalar code, and z >> 11 < 2^53 converts exactly, so the
// lanes are bit-identical to Utility(). The last vector of a row covers
// the table padding; only its roster lanes are stored.
template <int L>
LACB_TILE void UtilityRows(const RowArgs& args) {
  using V = typename simd::Lanes<L>::V;
  using M = typename simd::Lanes<L>::M;
  using U = typename simd::Lanes<L>::U;
  // Locals, so the row stores below cannot alias what the loops read.
  const RowArgs a = args;
  const UtilityModelConfig& c = a.config;
  const double total_weight =
      c.quality_weight + c.affinity_weight + c.noise_weight;
  for (size_t r = 0; r < a.num_requests; ++r) {
    const Request& request = a.requests[r];
    const double* x = request.housing_embedding.data();
    const size_t dims =
        std::min(request.housing_embedding.size(), a.embedding_width);
    const double* district =
        a.district_affinity +
        std::min(request.district, a.num_districts) * a.stride;
    const uint64_t key = RequestNoiseKey(c.noise_seed, request.id);
    const double pickiness = request.pickiness;
    double* row = a.out + r * a.cols;
    for (size_t b = 0; b < a.cols; b += L) {
      V taste = {};
      for (size_t i = 0; i < dims; ++i) {
        V e;
        simd::Load(e, a.embedding + i * a.stride + b);
        taste += x[i] * e;
      }
      taste = 0.5 * (taste + 1.0);
      Clamp01(taste);
      V affinity;
      simd::Load(affinity, district + b);
      affinity = 0.5 * affinity + 0.5 * taste;
      affinity = (1.0 - pickiness) * affinity + pickiness * affinity * affinity;
      U z;
      simd::Load(z, a.noise_key + b);
      z = key + z;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      V noise = __builtin_convertvector((M)(z >> 11), V) * 0x1.0p-53;
      V quality;
      simd::Load(quality, a.quality + b);
      V u = (c.quality_weight * quality + c.affinity_weight * affinity +
             c.noise_weight * noise) /
            total_weight;
      Clamp01(u);
      if (b + L <= a.cols) {
        simd::Store(row + b, u);
      } else {
        double lanes[L];
        simd::Store(lanes, u);
        std::copy(lanes, lanes + (a.cols - b), row + b);
      }
    }
  }
}

// The kernel's only out-of-line entries, one per tier (common/cpu.h).
using RowsFn = void (*)(const RowArgs&);
void UtilityRows2(const RowArgs& a) { UtilityRows<2>(a); }
#if defined(__x86_64__)
[[LACB_TARGET_LANES4]] void UtilityRows4(const RowArgs& a) {
  UtilityRows<4>(a);
}
[[LACB_TARGET_LANES8]] void UtilityRows8(const RowArgs& a) {
  UtilityRows<8>(a);
}
#endif

RowsFn RowsFor(size_t lanes) {
  switch (lanes) {
#if defined(__x86_64__)
    case 8:
      return UtilityRows8;
    case 4:
      return UtilityRows4;
#endif
    default:
      return UtilityRows2;
  }
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
  const size_t stride = (n + kMaxLanes - 1) / kMaxLanes * kMaxLanes;
  model.stride_ = stride;
  model.column_quality_.assign(stride, 0.0);
  model.noise_key_.assign(stride, 0);
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
  model.embedding_.assign(model.embedding_width_ * stride, 0.0);
  model.district_affinity_.assign((model.num_districts_ + 1) * stride, 0.0);
  for (size_t b = 0; b < n; ++b) {
    const Preference& pref = brokers[b].preference;
    for (size_t i = 0; i < pref.housing_embedding.size(); ++i) {
      model.embedding_[i * stride + b] = pref.housing_embedding[i];
    }
    for (size_t d = 0; d < pref.district_affinity.size(); ++d) {
      model.district_affinity_[d * stride + b] = pref.district_affinity[d];
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
  la::Matrix m;
  UtilityMatrix(requests, &m);
  return m;
}

void UtilityModel::UtilityMatrix(const std::vector<Request>& requests,
                                 la::Matrix* out) const {
  // Dense ids: quality_score_ has one entry per roster broker.
  out->Resize(requests.size(), quality_score_.size());
  RowArgs args;
  args.config = config_;
  args.quality = column_quality_.data();
  args.noise_key = noise_key_.data();
  args.embedding = embedding_.data();
  args.district_affinity = district_affinity_.data();
  args.cols = quality_score_.size();
  args.stride = stride_;
  args.embedding_width = embedding_width_;
  args.num_districts = num_districts_;
  args.requests = requests.data();
  args.num_requests = requests.size();
  args.out = out->data().data();
  RowsFor(KernelLanes())(args);
}

}  // namespace lacb::sim
