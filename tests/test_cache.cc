/**
 * @file
 * Tests for the I-cache model and the fetch-hook plumbing of both
 * processors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cache/icache.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::cache;

namespace {

TEST(ICache, ColdMissesThenHits)
{
    ICache cache({256, 32, 1});
    cache.access(0, 4);
    cache.access(4, 4);
    cache.access(28, 4);
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().misses, 1u); // one line, one cold miss
    cache.access(32, 4);                 // next line
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ICache, DirectMappedConflict)
{
    // 256B direct-mapped, 32B lines -> 8 sets; addresses 0 and 256
    // collide.
    ICache cache({256, 32, 1});
    cache.access(0, 4);
    cache.access(256, 4);
    cache.access(0, 4);
    EXPECT_EQ(cache.stats().misses, 3u); // ping-pong
}

TEST(ICache, TwoWayAssociativityAbsorbsConflict)
{
    ICache cache({256, 32, 2});
    cache.access(0, 4);
    cache.access(256, 4);
    cache.access(0, 4);
    cache.access(256, 4);
    EXPECT_EQ(cache.stats().misses, 2u); // both fit in the set
}

TEST(ICache, LruEvictsOldest)
{
    // 2-way, 1 set per way pair at these addresses: fill both ways,
    // then a third line evicts the least recently used.
    ICache cache({64, 32, 2}); // 1 set, 2 ways
    cache.access(0, 4);    // miss, way0
    cache.access(32, 4);   // miss, way1
    cache.access(0, 4);    // hit (refreshes 0)
    cache.access(64, 4);   // miss, evicts 32
    cache.access(0, 4);    // hit
    cache.access(32, 4);   // miss again
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ICache, StraddlingAccessTouchesBothLines)
{
    ICache cache({256, 32, 1});
    cache.access(30, 4); // spans lines 0 and 1
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    cache.access(30, 4);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ICache, NeverUsedWaysFillBeforeAnyEviction)
{
    // Single 4-way set. The victim scan is index-ordered over the ways,
    // so among never-used ways (all lastUse 0) the lowest index wins
    // deterministically, and no resident line is evicted while an
    // untouched way remains.
    ICache cache({128, 32, 4});
    cache.access(0, 4);   // miss -> way 0
    cache.access(32, 4);  // miss -> way 1
    cache.access(0, 4);   // hit
    cache.access(32, 4);  // hit
    cache.access(64, 4);  // miss -> way 2 (never used), not an eviction
    cache.access(96, 4);  // miss -> way 3
    cache.access(0, 4);   // still resident
    cache.access(32, 4);  // still resident
    EXPECT_EQ(cache.stats().misses, 4u);

    cache.access(128, 4); // set full: evicts the true LRU, line 64
    cache.access(96, 4);  // hit: not the victim
    cache.access(0, 4);   // hit
    cache.access(32, 4);  // hit
    cache.access(64, 4);  // miss: it was the one evicted
    EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(ICache, ResetClearsEverything)
{
    ICache cache({256, 32, 1});
    cache.access(0, 4);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    cache.access(0, 4);
    EXPECT_EQ(cache.stats().misses, 1u); // cold again
}

TEST(ICache, FillAndEvictionCounters)
{
    // Direct-mapped ping-pong: every miss fills a line; every fill
    // after the set's first displaces a resident line.
    ICache cache({256, 32, 1});
    cache.access(0, 4);   // cold fill, no eviction
    cache.access(256, 4); // fills over line 0: eviction
    cache.access(0, 4);   // and back: eviction
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().lineFills, 3u);
    EXPECT_EQ(cache.stats().evictions, 2u);

    cache.reset();
    EXPECT_EQ(cache.stats(), CacheStats{});
}

TEST(ICache, AccessReportsMissedLineCount)
{
    ICache cache({256, 32, 1});
    EXPECT_EQ(cache.access(30, 4), 2u); // straddle, both lines cold
    EXPECT_EQ(cache.access(30, 4), 0u); // both resident now
    EXPECT_EQ(cache.access(64, 4), 1u);
    EXPECT_TRUE(cache.touch(64));
    EXPECT_FALSE(cache.touch(96));
}

// Bad geometries are rejected as catchable fatals (CC_FATAL throws), so
// tools can report them as usage errors instead of aborting.
TEST(ICache, RejectsBadGeometry)
{
    // capacity not a whole number of sets: numSets() would truncate
    // 100/32 down to 3 sets and silently model a 96-byte cache.
    EXPECT_THROW(ICache({100, 32, 1}), std::runtime_error);
    EXPECT_THROW(ICache({256, 24, 1}), std::runtime_error); // line !pow2
    EXPECT_THROW(ICache({256, 2, 1}), std::runtime_error);  // line < 4
    EXPECT_THROW(ICache({256, 32, 0}), std::runtime_error); // no ways
    EXPECT_THROW(ICache({16, 32, 1}), std::runtime_error); // 0 sets
    EXPECT_THROW(ICache({96, 32, 1}), std::runtime_error); // 3 sets !pow2
    EXPECT_NE(cacheConfigError({100, 32, 1}).find("whole number"),
              std::string::npos);
    EXPECT_EQ(cacheConfigError({1024, 32, 2}), "");
}

/**
 * The division formulas ICache's precomputed shifts and mask replace,
 * as an independent model: line = addr / lineBytes, set = line % sets,
 * tag = line / sets, LRU over a use counter with the lowest way
 * winning ties.
 */
class DivisionCache
{
  public:
    explicit DivisionCache(const CacheConfig &config)
        : config_(config), tags_(config.numSets() * config.ways, none),
          uses_(tags_.size(), 0)
    {
    }

    unsigned
    access(uint32_t addr, uint32_t bytes)
    {
        unsigned missed = 0;
        for (uint32_t line = addr / config_.lineBytes;
             line <= (addr + bytes - 1) / config_.lineBytes; ++line)
            missed += !touch(line * config_.lineBytes);
        return missed;
    }

    bool
    touch(uint32_t addr)
    {
        uint32_t line = addr / config_.lineBytes;
        size_t base = (line % config_.numSets()) * config_.ways;
        uint64_t tag = line / config_.numSets();
        ++stats.accesses;
        ++tick_;
        size_t victim = base;
        for (size_t w = base; w < base + config_.ways; ++w) {
            if (tags_[w] == tag) {
                uses_[w] = tick_;
                return true;
            }
            if (uses_[w] < uses_[victim])
                victim = w;
        }
        ++stats.misses;
        ++stats.lineFills;
        stats.evictions += tags_[victim] != none;
        tags_[victim] = tag;
        uses_[victim] = tick_;
        return false;
    }

    CacheStats stats;

  private:
    static constexpr uint64_t none = UINT64_MAX;
    CacheConfig config_;
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> uses_;
    uint64_t tick_ = 0;
};

TEST(ICache, ShiftMaskMatchesDivisionOnEveryGeometry)
{
    // Every valid geometry up to 64 KiB with 1-8 ways, driven by a
    // seeded stream of sequential runs, random jumps and straddling
    // accesses, plus single-line probes and the top of the address
    // space (where tags are widest).
    std::mt19937 rng(20240611);
    unsigned geometries = 0;
    for (uint32_t line = 4; line <= 65536; line *= 2) {
        for (uint32_t ways = 1; ways <= 8; ++ways) {
            for (uint32_t sets = 1;
                 uint64_t{line} * ways * sets <= 65536; sets *= 2) {
                CacheConfig config{line * ways * sets, line, ways};
                ASSERT_EQ(cacheConfigError(config), "");
                ICache cache(config);
                DivisionCache reference(config);
                uint32_t span = 4 * config.capacityBytes;
                uint32_t addr = 0;
                for (int i = 0; i < 1500; ++i) {
                    uint32_t bytes = 1 + rng() % 16;
                    switch (rng() % 8) {
                      case 0:
                        addr = rng() % span;
                        break;
                      case 1:
                        addr = 0xFFFFFF00u - rng() % span;
                        break;
                      case 2:
                        // Straddle a line boundary.
                        addr = (rng() % span) / line * line + line -
                               1 - rng() % std::min(bytes, line);
                        break;
                      case 3:
                        ASSERT_EQ(cache.touch(addr), reference.touch(addr))
                            << line << ":" << ways << ":" << sets;
                        continue;
                      default:
                        addr += bytes;
                        break;
                    }
                    ASSERT_EQ(cache.access(addr, bytes),
                              reference.access(addr, bytes))
                        << line << ":" << ways << ":" << sets << " @"
                        << addr << "+" << bytes;
                }
                ASSERT_EQ(cache.stats(), reference.stats)
                    << line << ":" << ways << ":" << sets;
                ++geometries;
            }
        }
    }
    // 15 line sizes x 8 ways x every power-of-two set count that fits.
    EXPECT_EQ(geometries, 719u);
}

TEST(FetchHooks, NativeFetchCountMatchesInstCount)
{
    Program p = workloads::buildBenchmark("compress");
    uint64_t fetches = 0;
    Cpu cpu(p);
    cpu.setFetchHook([&fetches](const FetchEvent &event) {
        EXPECT_EQ(event.bytes, 4u);
        EXPECT_EQ(event.retired, 1u);
        EXPECT_FALSE(event.isCodeword);
        ++fetches;
    });
    ExecResult r = cpu.run();
    EXPECT_EQ(fetches, r.instCount);
    // The built-in accumulator agrees with the hook's view.
    EXPECT_EQ(cpu.fetchStats().itemFetches, r.instCount);
    EXPECT_EQ(cpu.fetchStats().fetchedBytes, r.instCount * 4);
}

TEST(FetchHooks, CompressedFetchesAreSmallerAndFewerBytes)
{
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    compress::CompressedImage image = compress::compressProgram(p, config);

    uint64_t native_bytes = 0;
    Cpu cpu(p);
    cpu.setFetchHook([&native_bytes](const FetchEvent &event) {
        native_bytes += event.bytes;
    });
    cpu.run();

    uint64_t compressed_bytes = 0;
    CompressedCpu ccpu(image);
    ccpu.setFetchHook([&compressed_bytes](const FetchEvent &event) {
        compressed_bytes += event.bytes;
    });
    ccpu.run();

    // The compressed fetch stream moves strictly fewer bytes for the
    // same execution (the bandwidth argument of the paper's intro).
    EXPECT_LT(compressed_bytes, native_bytes);
}

TEST(FetchHooks, StraddlingCompressedFetchTouchesExactlyTwoLines)
{
    // Variable-size compressed items land at arbitrary byte offsets, so
    // some fetches straddle a cache-line boundary. Each such fetch must
    // count as exactly two line touches -- no more, no less -- and the
    // cache's access count must equal the sum of per-fetch line spans.
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    compress::CompressedImage image = compress::compressProgram(p, config);

    constexpr uint32_t line = 32;
    ICache cache({2048, line, 2});
    uint64_t expected_touches = 0;
    uint64_t straddles = 0;
    CompressedCpu cpu(image);
    cpu.setFetchHook([&](const FetchEvent &event) {
        ASSERT_GE(event.bytes, 1u);
        ASSERT_LE(event.bytes, line); // an item never covers three lines
        uint32_t lines = (event.addr + event.bytes - 1) / line -
                         event.addr / line + 1;
        ASSERT_LE(lines, 2u);
        straddles += lines == 2;
        expected_touches += lines;
        cache.access(event.addr, event.bytes);
    });
    cpu.run();
    EXPECT_GT(straddles, 0u);
    EXPECT_EQ(cache.stats().accesses, expected_touches);
}

TEST(FetchHooks, CompressedCodeMissesLessInSmallCache)
{
    Program p = workloads::buildBenchmark("go");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    compress::CompressedImage image = compress::compressProgram(p, config);

    CacheConfig geometry{2048, 32, 1};
    ICache native(geometry);
    Cpu cpu(p);
    cpu.setFetchHook([&native](const FetchEvent &event) {
        native.access(event.addr, event.bytes);
    });
    cpu.run();

    ICache compressed(geometry);
    CompressedCpu ccpu(image);
    ccpu.setFetchHook([&compressed](const FetchEvent &event) {
        compressed.access(event.addr, event.bytes);
    });
    ccpu.run();

    EXPECT_LT(compressed.stats().missRate(), native.stats().missRate());
}

} // namespace
