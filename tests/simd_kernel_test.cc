// Bit-exactness of the AVX2 membership kernel against the scalar
// reference path: same verdict for every sample — hence the same count —
// across odd sample counts, ranges that start off a lane-group boundary
// (misaligned tails), dimensions above the lane-group width, and the
// affinely-mapped lower-bound variant. Vector-path tests skip on
// machines without AVX2; the dispatch plumbing tests always run.

#include "geometry/simd_kernel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "geometry/feasible_set.h"
#include "geometry/hyperplane.h"
#include "geometry/sample_cache.h"

namespace rod::geom {
namespace {

/// Restores runtime dispatch however a test toggled it.
struct SimdGuard {
  ~SimdGuard() { SetSimdKernelEnabled(true); }
};

Matrix RandomWeights(size_t rows, size_t dims, uint64_t seed) {
  Matrix w(rows, dims);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      w(i, k) = rng.Uniform(0.2, 3.0);
    }
  }
  return w;
}

/// The scalar verdict the kernel documents itself against: dot products
/// accumulated in k order as mul-then-add (exactly hyperplane.h's Dot),
/// every row tested against W x <= 1 + tol.
size_t ReferenceCount(const Matrix& weights, const Matrix& samples,
                      size_t begin, size_t end, const double* lower_bound,
                      double scale, double tol) {
  const size_t d = samples.cols();
  std::vector<double> mapped(d);
  size_t feasible = 0;
  for (size_t s = begin; s < end; ++s) {
    std::span<const double> x = samples.Row(s);
    if (lower_bound != nullptr) {
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

TEST(SimdKernelTest, IsaNameTracksToggle) {
  SimdGuard guard;
  SetSimdKernelEnabled(false);
  EXPECT_STREQ(ActiveSimdIsa(), "scalar");
  EXPECT_FALSE(SimdKernelEnabled());
  SetSimdKernelEnabled(true);
  if (SimdKernelAvailable()) {
    EXPECT_STREQ(ActiveSimdIsa(), "avx2");
    EXPECT_TRUE(SimdKernelEnabled());
  } else {
    EXPECT_STREQ(ActiveSimdIsa(), "scalar");
  }
}

TEST(SimdKernelTest, DirectKernelMatchesScalarOnMisalignedRanges) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  // Odd sample counts and dims straddling the 4-wide lane group; begins
  // off the group boundary force partial-group bookkeeping.
  for (size_t dims : {1u, 2u, 3u, 4u, 5u, 7u, 11u}) {
    for (size_t num_samples : {5u, 7u, 63u, 130u}) {
      SimplexSampleKey key;
      key.dims = dims;
      key.num_samples = num_samples;
      const SimplexSampleSet set = GenerateSimplexSampleSet(key);
      const Matrix weights = RandomWeights(3, dims, 0xabc0 + dims);
      for (size_t begin : {0u, 1u, 2u, 3u, 5u}) {
        if (begin >= num_samples) continue;
        const size_t end = num_samples;
        size_t tail = begin;
        const size_t simd_count = CountContainedAvx2(
            weights.Row(0).data(), weights.rows(), dims, set.lanes.data(),
            set.lane_stride, begin, end, /*lower_bound=*/nullptr,
            /*scale=*/1.0, /*tol=*/1e-9, /*map_scratch=*/nullptr, &tail);
        const size_t full_groups = (end - begin) / kSimdGroup;
        EXPECT_EQ(tail, begin + kSimdGroup * full_groups)
            << "dims=" << dims << " n=" << num_samples << " begin=" << begin;
        EXPECT_EQ(simd_count,
                  ReferenceCount(weights, set.samples, begin, tail,
                                 /*lower_bound=*/nullptr, 1.0, 1e-9))
            << "dims=" << dims << " n=" << num_samples << " begin=" << begin;
      }
    }
  }
}

TEST(SimdKernelTest, DirectKernelMatchesScalarWithLowerBoundMapping) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  for (size_t dims : {2u, 5u, 9u}) {
    const size_t num_samples = 101;  // odd: scalar tail of one sample
    SimplexSampleKey key;
    key.dims = dims;
    key.num_samples = num_samples;
    const SimplexSampleSet set = GenerateSimplexSampleSet(key);
    const Matrix weights = RandomWeights(4, dims, 0xbee0 + dims);
    std::vector<double> lb(dims);
    for (size_t k = 0; k < dims; ++k) {
      lb[k] = 0.01 * static_cast<double>(k + 1);
    }
    const double scale = 0.75;
    std::vector<double> scratch(kSimdGroup * dims);
    size_t tail = 0;
    const size_t simd_count = CountContainedAvx2(
        weights.Row(0).data(), weights.rows(), dims, set.lanes.data(),
        set.lane_stride, 0, num_samples, lb.data(), scale, 1e-9,
        scratch.data(), &tail);
    EXPECT_EQ(tail, num_samples - num_samples % kSimdGroup);
    EXPECT_EQ(simd_count, ReferenceCount(weights, set.samples, 0, tail,
                                         lb.data(), scale, 1e-9))
        << "dims=" << dims;
  }
}

TEST(SimdKernelTest, RatioToIdealIdenticalAcrossPaths) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  SimdGuard guard;
  for (size_t dims : {2u, 3u, 5u, 8u}) {
    const Matrix weights = RandomWeights(6, dims, 0xfeed + dims);
    const FeasibleSet fs{Matrix(weights)};
    VolumeOptions vol;
    vol.num_samples = 4097;  // odd: exercises the scalar tail
    SetSimdKernelEnabled(true);
    const double simd_ratio = fs.RatioToIdeal(vol);
    SetSimdKernelEnabled(false);
    const double scalar_ratio = fs.RatioToIdeal(vol);
    EXPECT_EQ(simd_ratio, scalar_ratio) << "dims=" << dims;

    std::vector<double> lb(dims, 0.02);
    SetSimdKernelEnabled(true);
    const auto simd_above = fs.RatioToIdealAbove(lb, vol);
    SetSimdKernelEnabled(false);
    const auto scalar_above = fs.RatioToIdealAbove(lb, vol);
    ASSERT_TRUE(simd_above.ok());
    ASSERT_TRUE(scalar_above.ok());
    EXPECT_EQ(*simd_above, *scalar_above) << "dims=" << dims;
  }
}

TEST(SimdKernelTest, OddSampleCountIdenticalAcrossPaths) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  SimdGuard guard;
  const size_t dims = 6;
  const Matrix weights = RandomWeights(8, dims, 0x5eed);
  const FeasibleSet fs{Matrix(weights)};
  VolumeOptions vol;
  vol.num_samples = 8191;  // odd: the last three samples take the scalar tail
  SetSimdKernelEnabled(true);
  const double simd = fs.RatioToIdeal(vol);
  SetSimdKernelEnabled(false);
  EXPECT_EQ(fs.RatioToIdeal(vol), simd);
}

}  // namespace
}  // namespace rod::geom
