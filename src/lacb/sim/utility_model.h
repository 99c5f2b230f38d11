// Matching-utility oracle u_{r,b}.
//
// Stand-in for the platform's deployed XGBoost utility model (paper
// Sec. VII-A: "a simulator of Beike, which takes the same utility function
// deployed and outputs the utility between requests and brokers"). The
// utility blends the broker's intrinsic quality with a request–broker
// affinity (district match + housing-taste dot product) plus deterministic
// per-pair noise, producing values in [0, 1] with realistic skew: good
// brokers dominate most requests (which is what makes top-k overload them).

#ifndef LACB_SIM_UTILITY_MODEL_H_
#define LACB_SIM_UTILITY_MODEL_H_

#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/rng.h"
#include "lacb/la/matrix.h"
#include "lacb/sim/broker.h"
#include "lacb/sim/request.h"

namespace lacb::sim {

/// \brief Weights of the utility blend.
///
/// Quality and affinity are balanced so top-k lists are house-specific
/// (each district has its own leading brokers, as on the real platform
/// where the recommended brokers are those associated with the clicked
/// house) while strong brokers still dominate within their districts —
/// this reproduces the paper's measured concentration (top-1 workload
/// ≈ 12× the city mean) rather than a degenerate winner-takes-all.
struct UtilityModelConfig {
  double quality_weight = 0.45;
  double affinity_weight = 0.45;
  double noise_weight = 0.1;
  /// Exponent compressing the long-tailed raw quality score into ranking
  /// scores (1 = no compression; smaller = flatter hierarchy). Controls
  /// how concentrated top-k recommendation becomes.
  double quality_compression = 0.45;
  uint64_t noise_seed = 777;
};

/// \brief Deterministic utility oracle over (request, broker) pairs.
class UtilityModel {
 public:
  /// \brief Precomputes per-broker quality scores from the population and
  /// packs the broker-side terms of u_{r,b} for UtilityMatrix.
  static Result<UtilityModel> Create(const std::vector<Broker>& brokers,
                                     const UtilityModelConfig& config = {});

  /// \brief u_{r,b} in [0, 1]; deterministic in (r.id, b.id).
  double Utility(const Request& request, const Broker& broker) const;

  /// \brief Dense |requests| × |roster| utility matrix for one batch, where
  /// the roster is the broker list given to Create (column b is its b-th
  /// broker). For finite embeddings, bit-identical to calling Utility() on
  /// every pair. Rows are built by a lane-width-generic kernel (8, 4 or 2
  /// brokers per vector, common/cpu.h): each lane runs Utility()'s scalar
  /// operations in the same order, so the width changes no bit.
  la::Matrix UtilityMatrix(const std::vector<Request>& requests) const;

  /// \brief The same into *out, reusing its storage: no allocation once it
  /// has held a batch this large.
  void UtilityMatrix(const std::vector<Request>& requests,
                     la::Matrix* out) const;

 private:
  UtilityModel() = default;

  UtilityModelConfig config_;
  /// Normalized intrinsic quality per broker id (assumes dense 0-based ids).
  std::vector<double> quality_score_;

  // Broker-side terms of the roster, packed with the roster index fastest
  // so one request's terms for every broker are contiguous. Every table row
  // holds `stride_` columns: the roster size rounded up to a whole 8-lane
  // vector, zero past the roster, so a row's last vector reads no further.
  size_t stride_ = 0;
  /// quality_score_ of each roster broker.
  std::vector<double> column_quality_;
  /// Broker half of each roster broker's pair-noise key.
  std::vector<uint64_t> noise_key_;
  /// Housing embeddings as [dimension][broker], zero-padded to the roster's
  /// widest embedding.
  size_t embedding_width_ = 0;
  std::vector<double> embedding_;
  /// District affinities as [district][broker], zero-padded to the roster's
  /// longest affinity list, plus one all-zero row for any later district.
  size_t num_districts_ = 0;
  std::vector<double> district_affinity_;
};

}  // namespace lacb::sim

#endif  // LACB_SIM_UTILITY_MODEL_H_
