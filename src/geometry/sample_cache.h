// Copyright (c) the ROD reproduction authors.
//
// A shared, thread-safe cache of simplex sample matrices. Every volume
// estimate in a bench sweep integrates over the *same* ideal simplex; only
// the weight matrices differ between placements. Generating the Halton /
// pseudo-random points and mapping them through MapUnitCubeToSimplex once
// per (dims, samples, generator, seed, shift) key — then sharing the S x d
// row-major matrix read-only across all placements — turns RatioToIdeal
// from generate+sort+test per call into a pure membership kernel.

#ifndef ROD_GEOMETRY_SAMPLE_CACHE_H_
#define ROD_GEOMETRY_SAMPLE_CACHE_H_

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"

namespace rod::geom {

/// Minimal aligned allocator for the SIMD lane storage (C++17 aligned new).
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

/// 32-byte-aligned double buffer (one AVX2 vector per alignment unit).
using AlignedLaneBuffer = std::vector<double, AlignedAllocator<double, 32>>;

/// Identifies one deterministic simplex sample set.
struct SimplexSampleKey {
  size_t dims = 0;
  size_t num_samples = 0;

  /// Plain pseudo-random (xoshiro) points instead of the Halton sequence.
  bool pseudo_random = false;

  /// Rng seed; meaningful (and expected non-zero-canonical) only when
  /// `pseudo_random` — Halton ignores seeds, so Halton keys leave it 0 and
  /// every seed shares one cached sample set.
  uint64_t seed = 0;

  /// Cranley–Patterson rotation (Halton only): replication
  /// `shift_index - 1` of the shift stream seeded with `shift_seed`;
  /// 0 means unshifted.
  uint64_t shift_index = 0;
  uint64_t shift_seed = 0;

  bool operator==(const SimplexSampleKey&) const = default;
};

/// Generates the S x d sample matrix for `key` (row s = one point of the
/// solid simplex `{x >= 0, sum x <= 1}`). Pure and deterministic: the same
/// key yields the same matrix bit for bit, and the points are identical to
/// what the pre-cache sequential estimator drew for the same options.
Matrix GenerateSimplexSamples(const SimplexSampleKey& key);

/// One cached sample set in both layouts the membership kernel consumes:
/// the historical S x d row-major matrix (scalar path, Row(s) spans) and a
/// transposed d x lane_stride lane buffer (SIMD path) where
/// `lanes[k * lane_stride + s] == samples(s, k)`. The stride is the sample
/// count padded up to a multiple of kSimdGroup so every lane row starts
/// 32-byte aligned and a 4-wide load never reads past the buffer; pad
/// columns are zero and never counted (the SIMD kernel only processes full
/// groups of real samples, the scalar tail covers the rest).
struct SimplexSampleSet {
  Matrix samples;
  size_t lane_stride = 0;
  AlignedLaneBuffer lanes;
};

/// Builds the dual-layout sample set for `key` (generation + transpose).
SimplexSampleSet GenerateSimplexSampleSet(const SimplexSampleKey& key);

/// The cache. `Get` is safe to call from concurrent threads; generation
/// runs outside the lock, so concurrent misses on different keys generate
/// in parallel (a lost race on the same key discards the duplicate and
/// returns the first-inserted matrix — both are bit-identical anyway).
class SimplexSampleCache {
 public:
  /// Keeps at most `max_entries` sample sets, evicting the oldest insert
  /// first. Outstanding shared_ptrs keep evicted matrices alive.
  explicit SimplexSampleCache(size_t max_entries = 64);

  /// The sample set for `key`: cached buffer on hit, generated and
  /// inserted on miss.
  std::shared_ptr<const SimplexSampleSet> Get(const SimplexSampleKey& key);

  size_t hits() const;
  size_t misses() const;
  size_t size() const;

  /// Drops every entry and zeroes the hit/miss counters.
  void Clear();

  /// Process-wide instance used by FeasibleSet.
  static SimplexSampleCache& Global();

 private:
  struct KeyHash {
    size_t operator()(const SimplexSampleKey& key) const;
  };

  mutable std::mutex mu_;
  size_t max_entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  std::unordered_map<SimplexSampleKey, std::shared_ptr<const SimplexSampleSet>,
                     KeyHash>
      entries_;
  std::deque<SimplexSampleKey> insertion_order_;
};

}  // namespace rod::geom

#endif  // ROD_GEOMETRY_SAMPLE_CACHE_H_
