/**
 * @file
 * Extension: instruction-cache impact of compressed code.
 *
 * The paper motivates compression partly by the memory system (section
 * 1: "Reducing program size is one way to reduce instruction cache
 * misses", citing the companion study [Chen97a/b]). Here both
 * processors run each benchmark through the same I-cache model: the
 * plain Cpu fetches 4-byte instructions from the uncompressed image;
 * the CompressedCpu fetches variable-size items from the compressed
 * image, so more useful instructions fit per line.
 *
 * Expected shape (per [Chen97a]): compressed code has the lower miss
 * rate in the capacity-limited region, with the largest relative gain
 * where the native working set just exceeds the cache. Direct-mapped
 * conflict placement can flip isolated points; associativity smooths
 * them. The eviction table tells the two miss flavours apart: cold
 * fills never evict, capacity/conflict fills do (cache::CacheStats).
 */

#include <array>
#include <iterator>

#include "cache/icache.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

namespace {

constexpr uint32_t sizes[] = {512, 1024, 2048, 4096, 8192};
constexpr size_t numSizes = std::size(sizes);

cache::CacheStats
runThroughCache(const cache::CacheConfig &config, auto &&cpu)
{
    cache::ICache cache(config);
    cpu.setFetchHook([&cache](const FetchEvent &event) {
        cache.access(event.addr, event.bytes);
    });
    cpu.run(1ull << 27);
    return cache.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Extension: I-cache",
           "miss rates, native vs compressed fetch (32B lines, "
           "direct-mapped)");

    std::vector<std::string> names;
    std::vector<std::array<cache::CacheStats, numSizes>> native_stats;
    std::vector<std::array<cache::CacheStats, numSizes>> compressed_stats;
    for (const auto &[name, program] : buildSuite()) {
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Nibble;
        config.maxEntries = 4680;
        compress::CompressedImage image =
            compress::compressProgram(program, config);

        std::array<cache::CacheStats, numSizes> native, compressed;
        for (size_t i = 0; i < numSizes; ++i) {
            cache::CacheConfig cache_config{sizes[i], 32, 1};
            Cpu cpu(program);
            native[i] = runThroughCache(cache_config, cpu);
            CompressedCpu ccpu(image);
            compressed[i] = runThroughCache(cache_config, ccpu);
        }
        names.push_back(name);
        native_stats.push_back(native);
        compressed_stats.push_back(compressed);
    }

    std::printf("%-9s", "bench");
    for (uint32_t size : sizes)
        std::printf("     %4uB (n/c)", size);
    std::printf("\n");
    for (size_t b = 0; b < names.size(); ++b) {
        std::printf("%-9s", names[b].c_str());
        for (size_t i = 0; i < numSizes; ++i)
            std::printf("  %5.2f%%/%5.2f%%",
                        native_stats[b][i].missRate() * 100,
                        compressed_stats[b][i].missRate() * 100);
        std::printf("\n");
    }

    std::printf("\nevictions (native/compressed):\n%-9s", "bench");
    for (uint32_t size : sizes)
        std::printf("    %4uB (n/c)", size);
    std::printf("\n");
    for (size_t b = 0; b < names.size(); ++b) {
        std::printf("%-9s", names[b].c_str());
        for (size_t i = 0; i < numSizes; ++i)
            std::printf("  %6llu/%6llu",
                        static_cast<unsigned long long>(
                            native_stats[b][i].evictions),
                        static_cast<unsigned long long>(
                            compressed_stats[b][i].evictions));
        std::printf("\n");
    }

    std::printf("shape: compressed code misses less in the capacity-"
                "limited region (largest gap where the native working set "
                "just misses fitting);\nisolated direct-mapped conflict "
                "points can flip (e.g. a hot loop straddling a set) -- "
                "add a way to smooth them.\nevictions follow the same "
                "shape minus the cold fills (every miss beyond the first "
                "touch of a line is an eviction).\n");
    return 0;
}
