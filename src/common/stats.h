/**
 * @file
 * Lightweight statistics primitives used by simulator components.
 *
 * Components keep a plain `Stats` aggregate of counters/histograms and
 * expose it by const reference; the runner formats reports from them.
 */

#ifndef MOSAIC_COMMON_STATS_H
#define MOSAIC_COMMON_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ckpt/serde.h"

namespace mosaic {

/** Ratio helper that tolerates a zero denominator. */
constexpr double
safeRatio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Fixed-bucket histogram for latency-style distributions.
 * Buckets are [0,w), [w,2w), ...; the final bucket is an overflow bucket.
 */
class Histogram
{
  public:
    /** Creates @p buckets buckets of @p width units each. */
    explicit Histogram(std::uint64_t width = 64, std::size_t buckets = 64)
        : width_(width), counts_(buckets + 1, 0)
    {
    }

    /** Records one sample. */
    void
    record(std::uint64_t value)
    {
        const std::size_t idx =
            std::min(static_cast<std::size_t>(value / width_),
                     counts_.size() - 1);
        ++counts_[idx];
        sum_ += value;
        ++samples_;
        max_ = std::max(max_, value);
    }

    /** Number of recorded samples. */
    std::uint64_t samples() const { return samples_; }

    /** Mean of all samples (0 when empty). */
    double mean() const { return safeRatio(double(sum_), double(samples_)); }

    /** Largest recorded sample. */
    std::uint64_t max() const { return max_; }

    /** Raw bucket counts; the last bucket holds overflow. */
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /**
     * Checkpoint hook (DESIGN.md §14): the tallies. The bucket count is
     * configuration, not state, so a differing count fails the load.
     */
    void
    serialize(ckpt::Archive &ar)
    {
        ar.expect(counts_.size(), "histogram bucket count");
        for (std::uint64_t &c : counts_)
            ar.io(c);
        ar.io(sum_);
        ar.io(samples_);
        ar.io(max_);
    }

    /** Width of each bucket. */
    std::uint64_t bucketWidth() const { return width_; }

    /**
     * Approximate p-th percentile (p in [0,100]) from bucket midpoints.
     *
     * Ceil semantics: the result is the bucket containing the
     * ceil(p/100 * samples)-th sample (at least the first), so p=0
     * lands on the first *non-empty* bucket rather than an arbitrary
     * empty one. A percentile falling in the overflow bucket reports
     * the recorded maximum, the only bound the bucket provides.
     */
    double
    percentile(double p) const
    {
        if (samples_ == 0)
            return 0.0;
        const double clamped = std::min(std::max(p, 0.0), 100.0);
        const std::uint64_t target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(clamped / 100.0 * double(samples_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i + 1 < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= target)
                return (double(i) + 0.5) * double(width_);
        }
        return double(max_);
    }

    /** Clears all samples. */
    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        sum_ = samples_ = max_ = 0;
    }

    /**
     * Folds @p other into this histogram. Both must share width and
     * bucket count. All state is integral, so merging per-shard slices
     * is exact and order-independent: the merged view is byte-identical
     * to a histogram that recorded every sample directly.
     */
    void
    merge(const Histogram &other)
    {
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        sum_ += other.sum_;
        samples_ += other.samples_;
        max_ = std::max(max_, other.max_);
    }

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    std::uint64_t samples_ = 0;
    std::uint64_t max_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_STATS_H
