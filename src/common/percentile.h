#pragma once

/// \file percentile.h
/// LatencyHistogram: a fixed-footprint log-linear (HDR-style) histogram for
/// latency-shaped value streams, supporting p50/p99/p99.9 quantile queries
/// with bounded relative error and O(1) recording.
///
/// The bucket layout is 32 linear sub-buckets per power-of-two octave, so
/// any recorded value lands in a bucket whose width is at most 1/32 (~3.2%)
/// of its magnitude — tight enough to gate tail-latency SLOs while the whole
/// histogram stays ~15 KB and mergeable by bucket-wise addition. Values
/// below 32 are recorded exactly.
///
/// Its bucket layout is the one the telemetry registry's lock-free Histogram
/// shares (telemetry/registry.h), which the scenario load harness
/// (tools/loadgen) reads for per-tick latency SLO reporting. Record is
/// branch-light and allocation-free.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

namespace gamedb {

/// Monotonic wall-clock in nanoseconds — the single timestamp source of
/// telemetry::TraceSpan, which times every tick phase once, so every phase
/// breakdown sums consistently. (The planner's EXPLAIN ANALYZE timer reads
/// it too.)
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class LatencyHistogram {
 public:
  /// Linear sub-buckets per octave (power of two).
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  /// Octave groups 0..59 cover the full uint64_t range.
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  void Record(uint64_t v) {
    buckets_[BucketFor(v)]++;
    ++count_;
    sum_ += static_cast<double>(v);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Bucket-wise merge; min/max/count/sum combine exactly.
  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void Reset() { *this = LatencyHistogram(); }

  uint64_t count() const { return count_; }
  /// 0 when empty (so an empty histogram renders as all-zeros).
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Value at percentile `p` in (0, 100]: the upper edge of the bucket
  /// containing the rank-⌈p/100·count⌉ recorded value, clamped into
  /// [min, max] (so Percentile(100) is the exact max and no estimate falls
  /// outside the observed range). 0 when empty.
  uint64_t Percentile(double p) const {
    if (count_ == 0) return 0;
    if (p >= 100.0) return max_;
    double want = p / 100.0 * static_cast<double>(count_);
    auto target = static_cast<uint64_t>(want);
    if (static_cast<double>(target) < want || target == 0) ++target;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        return std::max(min_, std::min(max_, BucketUpperEdge(i)));
      }
    }
    return max_;
  }

  /// Bucket index for value `v`. Public so lock-free consumers (the
  /// telemetry registry's atomic histogram) can reuse the exact bucket
  /// layout and stay mergeable with LatencyHistogram captures.
  static int BucketFor(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
    int msb = 63 - __builtin_clzll(v);
    int group = msb - kSubBits + 1;
    int sub = static_cast<int>((v >> (msb - kSubBits)) & (kSub - 1));
    return group * kSub + sub;
  }

  /// Largest value that maps to bucket `i`.
  static uint64_t BucketUpperEdge(int i) {
    if (i < kSub) return static_cast<uint64_t>(i);
    int group = i / kSub;
    int sub = i % kSub;
    int shift = group - 1;
    uint64_t lower = static_cast<uint64_t>(kSub + sub) << shift;
    return lower + ((uint64_t{1} << shift) - 1);
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace gamedb
