// Copyright (c) the ROD reproduction authors.
//
// Feasible-set representation and volume estimation. A placement's feasible
// set in the normalized space is `{x >= 0 : W x <= 1 row-wise}`; since it is
// always contained in the ideal simplex `{x >= 0 : sum x <= 1}` (Theorem 1),
// volume ratios are estimated by sampling the simplex and counting the
// feasible fraction.

#ifndef ROD_GEOMETRY_FEASIBLE_SET_H_
#define ROD_GEOMETRY_FEASIBLE_SET_H_

#include <cstdint>
#include <span>

#include "common/matrix.h"
#include "common/random.h"
#include "common/status.h"
#include "geometry/sample_cache.h"

namespace rod::geom {

/// Tolerance of the membership predicate `W x <= 1 + kMembershipTol` used
/// by every volume estimator (and by callers that must reproduce its
/// verdicts bit for bit, e.g. the delta placement evaluation).
inline constexpr double kMembershipTol = 1e-12;

/// Knobs for Monte-Carlo volume estimation.
struct VolumeOptions {
  /// Number of sample points. The paper-scale experiments (d = 5) converge
  /// to ~1% relative error around 2^15 Halton samples.
  size_t num_samples = 32768;

  /// Force plain pseudo-random sampling instead of the Halton sequence.
  /// Also engaged automatically above `max_halton_dims`.
  bool use_pseudo_random = false;

  /// Dimension cutoff beyond which Halton degrades and pseudo-random
  /// sampling is used regardless of `use_pseudo_random`.
  size_t max_halton_dims = 12;

  /// Seed for pseudo-random sampling (ignored by Halton).
  uint64_t seed = 0x5eedf00dULL;
};

/// The normalized feasible set of one placement: rows of `weights` are the
/// node weight vectors W_i.
class FeasibleSet {
 public:
  /// Wraps a weight matrix (n rows = node hyperplanes, D cols = rate vars).
  explicit FeasibleSet(Matrix weights);

  const Matrix& weights() const { return weights_; }
  size_t dims() const { return weights_.cols(); }
  size_t num_nodes() const { return weights_.rows(); }

  /// True iff `x` (in normalized coordinates) overloads no node:
  /// `W_i . x <= 1 + tol` for every i.
  bool Contains(std::span<const double> x, double tol = 1e-12) const;

  /// Estimates `V(F) / V(F*)` — the fraction of the ideal simplex that is
  /// feasible. This is the ratio reported throughout the paper's §7.
  double RatioToIdeal(const VolumeOptions& options = {}) const;

  /// Volume of the feasible set in normalized coordinates
  /// (`RatioToIdeal * 1/d!`, computed in log space for the factorial).
  double NormalizedVolume(const VolumeOptions& options = {}) const;

  /// Uncertainty-quantified estimate from randomized QMC.
  struct RatioEstimate {
    double mean = 0.0;
    double std_error = 0.0;  ///< Standard error across replications.
    size_t replications = 0;
  };

  /// Randomized-QMC estimate of V(F)/V(F*) with a standard error:
  /// `replications` independent Cranley–Patterson rotations of the Halton
  /// set (each a random modulo-1 shift of every point) give independent
  /// unbiased estimates whose spread quantifies the integration error.
  /// Each replication uses `options.num_samples` points. Honors
  /// `use_pseudo_random` / `max_halton_dims` like the other estimators:
  /// past the Halton cutoff each replication is an independently reseeded
  /// pseudo-random estimate instead of a rotation.
  RatioEstimate RatioToIdealWithError(size_t replications = 8,
                                      const VolumeOptions& options = {}) const;

  /// §6.1 lower-bound variant: estimates
  /// `V(F ∩ {x >= b}) / V(F* ∩ {x >= b})`, the feasible fraction of the
  /// ideal region above the normalized lower-bound point `b`. Returns 0 if
  /// `b` lies on or above the ideal hyperplane (empty region).
  Result<double> RatioToIdealAbove(std::span<const double> lower_bound,
                                   const VolumeOptions& options = {}) const;

  /// Membership kernel: the number of rows `x` of `samples` (an S x d
  /// matrix of points) with `W x <= 1 + tol`, testing node rows with
  /// per-sample early exit.
  size_t CountContained(const Matrix& samples, double tol = 1e-12) const;

 private:
  Matrix weights_;
};

/// The cached sample set RatioToIdeal / RatioToIdealAbove integrate over
/// for a `dims`-dimensional estimate with `options`: Halton below the
/// cutoff, seeded pseudo-random above it (or when forced). Exposed so
/// other scorers (the delta placement evaluation) can integrate over the
/// exact same points.
SimplexSampleKey VolumeSampleKey(size_t dims, const VolumeOptions& options);

}  // namespace rod::geom

#endif  // ROD_GEOMETRY_FEASIBLE_SET_H_
