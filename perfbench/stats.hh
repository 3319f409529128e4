/**
 * @file
 * The benchmark's own arithmetic: percentiles, geometric means, cache
 * accounting, the seeded visiting schedule, and range-checked parsing
 * of its command line. Header-only and free of codecomp types so the
 * unit tests (test_stats.cc) exercise exactly what the benchmark runs.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string_view>
#include <vector>

#include "support/rng.hh"

namespace perfbench {

/** Median of @p samples (mean of the two middle values for an even
 *  count); 0 for no samples. */
inline double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t mid = samples.size() / 2;
    if (samples.size() % 2)
        return samples[mid];
    return (samples[mid - 1] + samples[mid]) / 2.0;
}

/** Median over i of a[i] / b[i]: the typical ratio of paired samples
 *  (the same tuple measured twice in a row), so tuple mix and warm-up
 *  cancel. 0 when there are no usable pairs. */
inline double
pairedRatio(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        if (b[i] > 0.0)
            ratios.push_back(a[i] / b[i]);
    return median(std::move(ratios));
}

/** Samples that must lie strictly beyond a reported tail percentile. */
constexpr size_t minTailSamples = 10;

/**
 * Nearest-rank @p q-th percentile (0 < q < 1) of @p samples, reported
 * only when at least minTailSamples samples lie beyond it: the value
 * at rank r = ceil(q * n) (1-based) needs n - r >= 10. A tail read off
 * fewer samples is an anecdote, not a percentile, so it is withheld.
 */
inline std::optional<double>
tailPercentile(std::vector<double> samples, double q)
{
    size_t n = samples.size();
    if (n == 0 || !(q > 0.0 && q < 1.0))
        return std::nullopt;
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < minTailSamples)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

/** Geometric mean of strictly positive @p values; nullopt if any value
 *  is not positive (a ratio of 0 or below means a broken input). */
inline std::optional<double>
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return std::nullopt;
    double logSum = 0.0;
    for (double value : values) {
        if (!(value > 0.0) || !std::isfinite(value))
            return std::nullopt;
        logSum += std::log(value);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

/** Share of lookups that hit; 0 when there were no lookups. */
inline double
hitRatio(uint64_t hits, uint64_t misses)
{
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
}

/**
 * Computations a content-addressed cache failed to share within one
 * batch: every miss computes, and a perfect cache computes each
 * distinct key exactly once, so the excess is misses minus distinct
 * keys. Negative only if the cache entered the batch already warm
 * (a fresh per-batch cache never does).
 */
inline int64_t
duplicateComputations(uint64_t misses, uint64_t distinctKeys)
{
    return static_cast<int64_t>(misses) - static_cast<int64_t>(distinctKeys);
}

/** Number of distinct values in @p keys. */
inline uint64_t
distinctCount(std::vector<uint64_t> keys)
{
    std::sort(keys.begin(), keys.end());
    return static_cast<uint64_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
}

/**
 * Visiting order of round @p round over @p tuples tuples: a Fisher-Yates
 * permutation drawn from SplitMix64 seeded by (seed, round). Every round
 * visits every tuple exactly once, so a run of whole rounds does the
 * same work under every seed; only the order differs.
 */
inline std::vector<size_t>
roundOrder(size_t tuples, uint64_t seed, uint64_t round)
{
    std::vector<size_t> order(tuples);
    std::iota(order.begin(), order.end(), size_t{0});
    codecomp::Rng rng(seed * 0x9e3779b97f4a7c15ull + round);
    for (size_t i = tuples; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/**
 * Parse @p text as a decimal integer in [lo, hi]: digits only, no
 * sign, no whitespace, no trailing characters, no overflow. nullopt on
 * anything else ("8abc", "1e3", "", "-1", "+5" are all rejected).
 */
inline std::optional<uint64_t>
parseUnsigned(std::string_view text, uint64_t lo, uint64_t hi)
{
    if (text.empty() || text.front() < '0' || text.front() > '9')
        return std::nullopt;
    uint64_t value = 0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size())
        return std::nullopt;
    if (value < lo || value > hi)
        return std::nullopt;
    return value;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
