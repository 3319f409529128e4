/**
 * @file
 * Unit tests of the benchmark's own arithmetic: the tail-percentile
 * rule, geometric means, cache hit ratios and duplicate-computation
 * accounting, the seeded equal-visit schedule, command-line number
 * parsing, and span self times.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> samples;
    for (size_t i = 1; i <= n; ++i)
        samples.push_back(static_cast<double>(i));
    return samples;
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond)
{
    // n = 100: p90 is rank 90, and ranks 91..100 are ten samples beyond.
    ASSERT_TRUE(tailPercentile(oneTo(100), 0.9).has_value());
    EXPECT_EQ(*tailPercentile(oneTo(100), 0.9), 90.0);
    // n = 99: rank ceil(89.1) = 90 leaves only nine beyond it.
    EXPECT_FALSE(tailPercentile(oneTo(99), 0.9).has_value());
    // n = 109: rank ceil(98.1) = 99 leaves exactly ten.
    ASSERT_TRUE(tailPercentile(oneTo(109), 0.9).has_value());
    EXPECT_EQ(*tailPercentile(oneTo(109), 0.9), 99.0);
    // p99 needs at least 1000 samples.
    EXPECT_FALSE(tailPercentile(oneTo(999), 0.99).has_value());
    EXPECT_EQ(*tailPercentile(oneTo(1000), 0.99), 990.0);
}

TEST(TailPercentile, OrderIndependentAndRejectsBadQuantiles)
{
    std::vector<double> shuffled = oneTo(100);
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(*tailPercentile(shuffled, 0.9), 90.0);
    EXPECT_FALSE(tailPercentile({}, 0.9).has_value());
    EXPECT_FALSE(tailPercentile(oneTo(100), 0.0).has_value());
    EXPECT_FALSE(tailPercentile(oneTo(100), 1.0).has_value());
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(*geomean({1.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(*geomean({2.0, 8.0, 4.0}), 4.0);
    EXPECT_DOUBLE_EQ(*geomean({0.5}), 0.5);
    // A geomean of ratios is the ratio of geomeans, unlike a mean.
    EXPECT_NEAR(*geomean({0.5, 2.0}), 1.0, 1e-15);
}

TEST(Geomean, RejectsEmptyAndNonPositive)
{
    EXPECT_FALSE(geomean({}).has_value());
    EXPECT_FALSE(geomean({1.0, 0.0}).has_value());
    EXPECT_FALSE(geomean({1.0, -2.0}).has_value());
    EXPECT_FALSE(geomean({std::nan("")}).has_value());
    EXPECT_FALSE(
        geomean({std::numeric_limits<double>::infinity()}).has_value());
}

TEST(CacheAccounting, HitRatios)
{
    // The starter corpus at pool width 1: 56 enumerate hits, 8 misses.
    EXPECT_DOUBLE_EQ(hitRatio(56, 8), 0.875);
    // At width 4 the race costs hits: 52 / 12.
    EXPECT_DOUBLE_EQ(hitRatio(52, 12), 0.8125);
    EXPECT_EQ(hitRatio(0, 0), 0.0);
    EXPECT_EQ(hitRatio(0, 5), 0.0);
    EXPECT_EQ(hitRatio(5, 0), 1.0);
}

TEST(CacheAccounting, DuplicateComputations)
{
    // 8 distinct programs need 8 enumerations; 12 misses computed 4
    // of them twice.
    EXPECT_EQ(duplicateComputations(12, 8), 4);
    EXPECT_EQ(duplicateComputations(8, 8), 0);
    EXPECT_EQ(duplicateComputations(0, 0), 0);
    // Only a warm cache can miss less than once per distinct key.
    EXPECT_EQ(duplicateComputations(3, 8), -5);
}

TEST(CacheAccounting, DistinctCount)
{
    EXPECT_EQ(distinctCount({}), 0u);
    EXPECT_EQ(distinctCount({7, 7, 7}), 1u);
    EXPECT_EQ(distinctCount({3, 1, 2, 3, 1}), 3u);
}

TEST(RoundOrder, EveryRoundIsAPermutation)
{
    for (uint64_t round = 0; round < 20; ++round) {
        std::vector<size_t> order = roundOrder(128, 7, round);
        std::vector<size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i)
            ASSERT_EQ(sorted[i], i) << "round " << round;
    }
    EXPECT_TRUE(roundOrder(0, 1, 0).empty());
    EXPECT_EQ(roundOrder(1, 1, 0), std::vector<size_t>{0});
}

TEST(RoundOrder, EqualVisitsUnderEverySeed)
{
    for (uint64_t seed : {0ull, 1ull, 2ull, 12345ull, ~0ull}) {
        std::vector<size_t> visits(32, 0);
        for (uint64_t round = 0; round < 5; ++round)
            for (size_t tuple : roundOrder(32, seed, round))
                ++visits[tuple];
        for (size_t count : visits)
            EXPECT_EQ(count, 5u) << "seed " << seed;
    }
}

TEST(RoundOrder, SeededAndReproducible)
{
    EXPECT_EQ(roundOrder(128, 3, 0), roundOrder(128, 3, 0));
    EXPECT_NE(roundOrder(128, 3, 0), roundOrder(128, 4, 0));
    EXPECT_NE(roundOrder(128, 3, 0), roundOrder(128, 3, 1));
    // Pinned: the schedule is part of the benchmark's definition, so
    // it must not drift with the standard library or the platform.
    EXPECT_EQ(roundOrder(8, 1, 0),
              (std::vector<size_t>{1, 0, 3, 5, 6, 7, 2, 4}));
}

TEST(PairedRatio, MedianOfPairwiseRatios)
{
    EXPECT_DOUBLE_EQ(pairedRatio({2, 3, 10}, {1, 3, 5}), 2.0);
    EXPECT_EQ(pairedRatio({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(pairedRatio({4, 1}, {2, 0}), 2.0); // 0 base skipped
}

TEST(ParseUnsigned, AcceptsPlainDecimalInRange)
{
    EXPECT_EQ(parseUnsigned("0", 0, 10), 0u);
    EXPECT_EQ(parseUnsigned("42", 0, 100), 42u);
    EXPECT_EQ(parseUnsigned("18446744073709551615", 0, UINT64_MAX),
              UINT64_MAX);
    EXPECT_EQ(parseUnsigned("007", 0, 10), 7u);
}

TEST(ParseUnsigned, RejectsEverythingElse)
{
    for (const char *text : {"", "8abc", "1e3", "-1", "+5", " 5", "5 ",
                             "0x10", "3.0", "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(text, 0, UINT64_MAX).has_value())
            << "'" << text << "'";
    EXPECT_FALSE(parseUnsigned("0", 1, 3600).has_value());
    EXPECT_FALSE(parseUnsigned("3601", 1, 3600).has_value());
    EXPECT_FALSE(parseUnsigned("2", 0, 1).has_value());
}

/** A span [start, end] in ms under @p parent. */
Span
span(const char *name, double start, double end, int32_t parent)
{
    return {name, static_cast<int64_t>(start * 1e6),
            static_cast<int64_t>(end * 1e6), parent, 0};
}

TEST(Spans, SelfTimesSubtractDirectChildren)
{
    Tracer tracer;
    int32_t root = tracer.add(span("op.x", 0, 10, -1));
    int32_t a = tracer.add(span("a.one", 0, 4, root));
    tracer.add(span("a.inner", 1, 2, a));
    tracer.add(span("b.two", 4, 9.5, root));
    std::vector<int64_t> self = selfTimesNs(tracer.spans());
    EXPECT_EQ(self[0], 500000);  // 10 - 4 - 5.5 ms
    EXPECT_EQ(self[1], 3000000); // 4 - 1 ms
    EXPECT_EQ(self[2], 1000000);
    EXPECT_EQ(self[3], 5500000);
}

TEST(Spans, UnattributedSharePerRoot)
{
    Tracer tracer;
    int32_t full = tracer.add(span("op.x", 0, 10, -1));
    tracer.add(span("a.one", 0, 10, full));
    int32_t gappy = tracer.add(span("op.x", 10, 20, -1));
    tracer.add(span("a.one", 10, 18, gappy));
    tracer.add(span("probe.run", 20, 25, -1)); // no children: not an op
    std::vector<double> shares = unattributedShares(tracer.spans());
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_DOUBLE_EQ(shares[0], 0.0);
    EXPECT_DOUBLE_EQ(shares[1], 0.2);
    std::map<std::string, double> totals = totalMillisByName(tracer.spans());
    EXPECT_DOUBLE_EQ(totals["a.one"], 18.0);
    EXPECT_DOUBLE_EQ(totals["op.x"], 20.0);
}

TEST(Spans, ChromeTraceHasOneEventPerSpan)
{
    Tracer tracer;
    {
        ScopedSpan root(&tracer, "op.x", -1, 3);
        ScopedSpan child(&tracer, "codegen.lex", root.index(), 3);
    }
    ScopedSpan disabled(nullptr, "never.recorded", -1, 0);
    EXPECT_EQ(disabled.index(), -1);
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_GE(tracer.spans()[0].durationNs(),
              tracer.spans()[1].durationNs());
    std::string json = tracer.chromeJson();
    EXPECT_NE(json.find("\"name\":\"codegen.lex\",\"cat\":\"codegen\""),
              std::string::npos);
    EXPECT_NE(json.find("\"op\":3"), std::string::npos);
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
}

} // namespace
