#include "geometry/feasible_set.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "geometry/sample_cache.h"
#include "geometry/simd_kernel.h"

namespace rod::geom {

namespace {

/// The sample-set key RatioToIdeal / RatioToIdealAbove integrate over.
SimplexSampleKey BaseKey(size_t dims, const VolumeOptions& options) {
  return VolumeSampleKey(dims, options);
}

/// The sample set of Cranley–Patterson replication `r` — or, past the
/// Halton cutoff, of the independently reseeded pseudo-random replication.
SimplexSampleKey ReplicationKey(size_t dims, const VolumeOptions& options,
                                size_t r) {
  SimplexSampleKey key = BaseKey(dims, options);
  if (key.pseudo_random) {
    key.seed = options.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
  } else {
    key.shift_index = r + 1;
    key.shift_seed = options.seed ^ 0xc9a471e5ULL;
  }
  return key;
}

/// Scalar membership loop over samples `[begin, end)` of the row-major
/// matrix: the bit-exact reference the SIMD path must reproduce.
size_t CountContainedScalarRange(const Matrix& weights, const Matrix& samples,
                                 size_t begin, size_t end,
                                 std::span<const double> lower_bound,
                                 double scale, double tol, Vector& mapped) {
  const size_t d = samples.cols();
  size_t feasible = 0;
  for (size_t s = begin; s < end; ++s) {
    std::span<const double> x = samples.Row(s);
    if (!lower_bound.empty()) {
      for (size_t k = 0; k < d; ++k) {
        mapped[k] = lower_bound[k] + scale * x[k];
      }
      x = mapped;
    }
    bool inside = true;
    for (size_t i = 0; i < weights.rows(); ++i) {
      if (Dot(weights.Row(i), x) > 1.0 + tol) {
        inside = false;
        break;
      }
    }
    if (inside) ++feasible;
  }
  return feasible;
}

/// Scalar membership kernel: counts rows `x` of `samples` — optionally
/// affinely mapped to `lower_bound + scale * x` first — that satisfy
/// `W x <= 1 + tol`, with per-sample early exit over the node rows.
size_t CountContainedImpl(const Matrix& weights, const Matrix& samples,
                          std::span<const double> lower_bound, double scale,
                          double tol) {
  assert(weights.cols() == samples.cols());
  Vector mapped(lower_bound.empty() ? 0 : samples.cols());
  return CountContainedScalarRange(weights, samples, 0, samples.rows(),
                                   lower_bound, scale, tol, mapped);
}

/// Dual-layout kernel over a cached SimplexSampleSet: full lane groups go
/// through the AVX2 kernel when it is enabled, the remainder (and the whole
/// range when SIMD is off) through the scalar reference loop. The
/// per-sample verdicts are bit-identical between the two paths, so the
/// count matches the scalar kernel on every ISA.
size_t CountContainedImpl(const Matrix& weights, const SimplexSampleSet& set,
                          std::span<const double> lower_bound, double scale,
                          double tol) {
  const Matrix& samples = set.samples;
  if (!SimdKernelEnabled() || set.lanes.empty()) {
    return CountContainedImpl(weights, samples, lower_bound, scale, tol);
  }
  const size_t num_samples = samples.rows();
  const size_t d = samples.cols();
  assert(weights.cols() == d);
  // Feasibility is the AND over all constraint rows, so any row order
  // yields the same per-sample verdict. Scanning the heaviest rows first
  // (largest row sum ~ largest expected dot against a simplex point) lets
  // the vector kernel's all-lanes-violated early exit fire after a row or
  // two on clearly infeasible samples instead of marching through the
  // light rows. stable_sort keeps ties in original order, so the permuted
  // matrix — and therefore the scan cost, not just the count — is
  // deterministic.
  Matrix ordered(weights.rows(), d);
  {
    std::vector<size_t> order(weights.rows());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      double sa = 0.0, sb = 0.0;
      for (size_t k = 0; k < d; ++k) {
        sa += weights(a, k);
        sb += weights(b, k);
      }
      return sa > sb;
    });
    for (size_t i = 0; i < order.size(); ++i) {
      std::span<const double> src = weights.Row(order[i]);
      std::copy(src.begin(), src.end(), ordered.Row(i).begin());
    }
  }
  Vector mapped(lower_bound.empty() ? 0 : d);
  Vector map_scratch(lower_bound.empty() ? 0 : d * kSimdGroup);
  size_t tail = 0;
  const size_t feasible = CountContainedAvx2(
      ordered.Row(0).data(), ordered.rows(), d, set.lanes.data(),
      set.lane_stride, 0, num_samples,
      lower_bound.empty() ? nullptr : lower_bound.data(), scale, tol,
      map_scratch.empty() ? nullptr : map_scratch.data(), &tail);
  return feasible + CountContainedScalarRange(weights, samples, tail,
                                              num_samples, lower_bound, scale,
                                              tol, mapped);
}

}  // namespace

SimplexSampleKey VolumeSampleKey(size_t dims, const VolumeOptions& options) {
  SimplexSampleKey key;
  key.dims = dims;
  key.num_samples = options.num_samples;
  if (options.use_pseudo_random || dims > options.max_halton_dims) {
    key.pseudo_random = true;
    key.seed = options.seed;
  }
  return key;
}

FeasibleSet::FeasibleSet(Matrix weights) : weights_(std::move(weights)) {
  assert(weights_.rows() > 0 && weights_.cols() > 0);
}

bool FeasibleSet::Contains(std::span<const double> x, double tol) const {
  assert(x.size() == weights_.cols());
  for (size_t i = 0; i < weights_.rows(); ++i) {
    if (Dot(weights_.Row(i), x) > 1.0 + tol) return false;
  }
  return true;
}

size_t FeasibleSet::CountContained(const Matrix& samples, double tol) const {
  return CountContainedImpl(weights_, samples, {}, 1.0, tol);
}

double FeasibleSet::RatioToIdeal(const VolumeOptions& options) const {
  assert(options.num_samples > 0);
  const auto samples = SimplexSampleCache::Global().Get(BaseKey(dims(), options));
  const size_t feasible =
      CountContainedImpl(weights_, *samples, {}, 1.0, kMembershipTol);
  return static_cast<double>(feasible) /
         static_cast<double>(options.num_samples);
}

double FeasibleSet::NormalizedVolume(const VolumeOptions& options) const {
  double log_simplex = 0.0;
  for (size_t k = 1; k <= dims(); ++k) {
    log_simplex -= std::log(static_cast<double>(k));
  }
  return RatioToIdeal(options) * std::exp(log_simplex);
}

FeasibleSet::RatioEstimate FeasibleSet::RatioToIdealWithError(
    size_t replications, const VolumeOptions& options) const {
  assert(replications >= 2);
  const size_t d = dims();
  // Each replication fetches (or generates) its own rotated sample set.
  double sum = 0.0, sum2 = 0.0;
  for (size_t r = 0; r < replications; ++r) {
    const auto samples =
        SimplexSampleCache::Global().Get(ReplicationKey(d, options, r));
    const size_t feasible =
        CountContainedImpl(weights_, *samples, {}, 1.0, kMembershipTol);
    const double estimate = static_cast<double>(feasible) /
                            static_cast<double>(options.num_samples);
    sum += estimate;
    sum2 += estimate * estimate;
  }
  RatioEstimate out;
  out.replications = replications;
  out.mean = sum / static_cast<double>(replications);
  const double var =
      std::max(0.0, (sum2 / static_cast<double>(replications) -
                     out.mean * out.mean) *
                        static_cast<double>(replications) /
                        static_cast<double>(replications - 1));
  out.std_error = std::sqrt(var / static_cast<double>(replications));
  return out;
}

Result<double> FeasibleSet::RatioToIdealAbove(
    std::span<const double> lower_bound, const VolumeOptions& options) const {
  const size_t d = dims();
  if (lower_bound.size() != d) {
    return Status::InvalidArgument("lower bound dimension mismatch");
  }
  for (double b : lower_bound) {
    if (b < 0.0) {
      return Status::InvalidArgument("lower bound must be non-negative");
    }
  }
  // {x >= b, sum x <= 1} is the simplex scaled by s = 1 - sum(b) and
  // translated to b; the kernel maps the cached simplex samples through
  // that affine map before testing membership.
  const double scale = 1.0 - Sum(lower_bound);
  if (scale <= 0.0) return 0.0;

  const auto samples = SimplexSampleCache::Global().Get(BaseKey(d, options));
  const size_t feasible = CountContainedImpl(weights_, *samples, lower_bound,
                                             scale, kMembershipTol);
  return static_cast<double>(feasible) /
         static_cast<double>(options.num_samples);
}

}  // namespace rod::geom
