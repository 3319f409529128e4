/**
 * @file
 * Instruction-cache model.
 *
 * The paper motivates compression partly through the memory system:
 * "Reducing program size is one way to reduce instruction cache misses
 * and achieve higher performance [Chen97b]". This set-associative,
 * LRU, configurable-line cache model is driven by the fetch streams of
 * both processors (Cpu fetches 4-byte instructions; CompressedCpu
 * fetches variable-size items from the compressed image), so the
 * locality benefit of compressed code can be measured directly
 * (bench/ext_icache) and priced in cycles (src/timing).
 */

#ifndef CODECOMP_CACHE_ICACHE_HH
#define CODECOMP_CACHE_ICACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace codecomp::cache {

struct CacheConfig
{
    uint32_t capacityBytes = 1024;
    uint32_t lineBytes = 32;
    uint32_t ways = 1; //!< 1 = direct-mapped

    /** Only meaningful for a valid config (see cacheConfigError):
     *  validation rejects geometries where this division truncates. */
    uint32_t numSets() const
    {
        return capacityBytes / (lineBytes * ways);
    }
};

/**
 * Human-readable reason @p config cannot describe a cache, or "" if it
 * is valid: power-of-two line size >= 4, at least one way, a capacity
 * that is a whole (power-of-two, non-zero) number of sets. ICache
 * raises a catchable fatal on a non-empty answer; CLI front ends check
 * it first so the user gets a usage error, not an abort.
 */
std::string cacheConfigError(const CacheConfig &config);

/** CC_FATAL (catchable) unless cacheConfigError(config) is empty. */
void validateCacheConfig(const CacheConfig &config);

struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t lineFills = 0;  //!< lines brought in (== misses here)
    uint64_t evictions = 0;  //!< fills that displaced a resident line

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) / accesses;
    }

    void reset() { *this = CacheStats{}; }

    bool operator==(const CacheStats &) const = default;
};

/** Set-associative LRU instruction cache. */
class ICache
{
  public:
    /** Catchable fatal if the geometry is invalid (cacheConfigError). */
    explicit ICache(const CacheConfig &config);

    /**
     * Access @p bytes bytes starting at @p addr (an access that spans
     * a line boundary touches both lines, like a real fetch unit's
     * sequential refill). Returns the number of lines missed (0..2 for
     * any fetch no larger than a line), so timing models can charge
     * each fill.
     */
    unsigned access(uint32_t addr, uint32_t bytes);

    /** Probe a single line containing @p addr; true on a hit. */
    bool touch(uint32_t addr) { return touchLine(addr >> lineShift_); }

    /** Probe line number @p line (an address >> lineShift()); true on
     *  a hit. */
    bool
    touchLine(uint32_t line)
    {
        ++stats_.accesses;
        // The line probed last is resident and already the most
        // recently used of its set, so probing it again is a hit that
        // changes no LRU order (fetch streams do this most of the time).
        if (line == lastLine_)
            return true;
        lastLine_ = line;
        Way *set = &ways_[static_cast<size_t>(line & setMask_) *
                          config_.ways];
        uint64_t tag = line >> setShift_;
        ++tick_;
        for (uint32_t w = 0; w < config_.ways; ++w) {
            if (set[w].tag == tag) {
                set[w].lastUse = tick_;
                return true;
            }
        }
        fill(set, tag);
        return false;
    }

    /** log2 of the line size: line index = addr >> lineShift(). */
    unsigned lineShift() const { return lineShift_; }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }
    void reset();

  private:
    struct Way
    {
        uint64_t tag = invalidTag;
        uint64_t lastUse = 0;
    };

    /** Miss path of touch(): replace the least recently used way of
     *  @p set (the first such way on a tie) with @p tag. */
    void fill(Way *set, uint64_t tag);

    /** 32-bit addresses make every real tag < 2^32, so this sentinel
     *  can never collide with a resident line. */
    static constexpr uint64_t invalidTag = UINT64_MAX;
    static constexpr uint32_t noLine = UINT32_MAX;

    CacheConfig config_;
    /** Shifts and mask of the (validated, power-of-two) geometry:
     *  line = addr >> lineShift_, set = line & setMask_,
     *  tag = line >> setShift_. */
    unsigned lineShift_ = 0;
    uint32_t setMask_ = 0;
    unsigned setShift_ = 0;
    std::vector<Way> ways_; //!< numSets * ways, row-major by set
    CacheStats stats_;
    uint64_t tick_ = 0;
    /** Line of the last probe; a line number is at most 2^30 - 1. */
    uint32_t lastLine_ = noLine;
};

} // namespace codecomp::cache

#endif // CODECOMP_CACHE_ICACHE_HH
