#include "cache/icache.hh"

#include <bit>

#include "support/logging.hh"

namespace codecomp::cache {

namespace {

bool
isPowerOfTwo(uint32_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

} // namespace

std::string
cacheConfigError(const CacheConfig &config)
{
    if (!isPowerOfTwo(config.lineBytes) || config.lineBytes < 4)
        return "line size must be a power of two >= 4 (got " +
               std::to_string(config.lineBytes) + ")";
    if (config.ways < 1)
        return "need at least one way";
    // numSets() would silently truncate here, dropping capacity on the
    // floor; reject instead of modelling a cache the user didn't ask for.
    if (config.capacityBytes % (config.lineBytes * config.ways) != 0)
        return "capacity " + std::to_string(config.capacityBytes) +
               " is not a whole number of sets of " +
               std::to_string(config.lineBytes * config.ways) + " bytes";
    uint32_t sets = config.numSets();
    if (sets == 0)
        return "capacity " + std::to_string(config.capacityBytes) +
               " holds no complete set";
    if (!isPowerOfTwo(sets))
        return "set count " + std::to_string(sets) +
               " must be a power of two";
    return "";
}

void
validateCacheConfig(const CacheConfig &config)
{
    std::string error = cacheConfigError(config);
    if (!error.empty())
        CC_FATAL("bad cache config: ", error);
}

ICache::ICache(const CacheConfig &config) : config_(config)
{
    validateCacheConfig(config);
    lineShift_ = static_cast<unsigned>(std::countr_zero(config.lineBytes));
    setMask_ = config.numSets() - 1;
    setShift_ = static_cast<unsigned>(std::countr_zero(config.numSets()));
    ways_.resize(static_cast<size_t>(config.numSets()) * config.ways);
}

void
ICache::reset()
{
    std::fill(ways_.begin(), ways_.end(), Way{});
    stats_.reset();
    tick_ = 0;
    lastLine_ = noLine;
}

void
ICache::fill(Way *set, uint64_t tag)
{
    Way *victim = set;
    for (uint32_t w = 1; w < config_.ways; ++w)
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    ++stats_.misses;
    ++stats_.lineFills;
    if (victim->tag != invalidTag)
        ++stats_.evictions;
    victim->tag = tag;
    victim->lastUse = tick_;
}

unsigned
ICache::access(uint32_t addr, uint32_t bytes)
{
    CC_ASSERT(bytes >= 1, "empty access");
    uint32_t first_line = addr >> lineShift_;
    uint32_t last_line = (addr + bytes - 1) >> lineShift_;
    unsigned missed = 0;
    for (uint32_t line = first_line; line <= last_line; ++line)
        missed += !touchLine(line);
    return missed;
}

} // namespace codecomp::cache
