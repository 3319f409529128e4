/**
 * @file
 * Extension: profile-guided dictionary selection.
 *
 * The paper optimizes static size; its introduction also motivates
 * compression through fetch bandwidth (the Perl96 SQL-server anecdote).
 * Those two objectives pick different dictionaries: a rarely executed
 * but often *repeated* sequence earns a codeword under the static
 * objective, while a hot loop body earns one under the traffic
 * objective. This harness builds both dictionaries for the same
 * program and budget, then measures what each optimizes:
 *
 *   static bytes   -- compressed program + dictionary size
 *   fetched bytes  -- bytes moved by the fetch unit over a full run
 *
 * The traffic-weighted selection itself lives in the library
 * (compress::selectByTraffic, scored by execution counts from
 * timing::profileExecutionCounts); bench/ext_timing reuses the same
 * machinery to place the traffic dictionary on the size-vs-cycles
 * plane.
 */

#include "compress/compressor.hh"
#include "compress/strategy.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "timing/timing.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;
using namespace codecomp::compress;

namespace {

/** Bytes moved by the compressed fetch unit over a full run. */
uint64_t
fetchedBytes(const CompressedImage &image)
{
    CompressedCpu cpu(image);
    cpu.run(1ull << 27);
    return cpu.fetchStats().fetchedBytes;
}

} // namespace

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Extension: profile-guided selection",
           "static-optimal vs traffic-optimal dictionaries (nibble, 64 "
           "entries, <= 4 insns)");
    std::printf("%-9s | %9s %9s | %11s %11s | %9s\n", "bench",
                "size-s(B)", "size-t(B)", "fetch-s(B)", "fetch-t(B)",
                "traffic");
    for (const auto &[name, program] : buildSuite()) {
        std::vector<uint64_t> profile =
            timing::profileExecutionCounts(program, 1ull << 27);

        CompressorConfig config;
        config.scheme = Scheme::Nibble;
        config.maxEntries = 64;
        config.maxEntryLen = 4;
        CompressedImage by_size = compressProgram(program, config);

        SchemeParams params = schemeParams(Scheme::Nibble);
        GreedyConfig greedy;
        greedy.maxEntries = config.maxEntries;
        greedy.maxEntryLen = config.maxEntryLen;
        greedy.insnNibbles = params.insnNibbles;
        greedy.codewordNibbles = params.defaultAssumedCodewordNibbles;
        SelectionResult traffic_sel =
            selectByTraffic(program, profile, greedy);
        CompressedImage by_traffic =
            compressWithSelection(program, config, std::move(traffic_sel));

        uint64_t fetch_s = fetchedBytes(by_size);
        uint64_t fetch_t = fetchedBytes(by_traffic);
        std::printf("%-9s | %9zu %9zu | %11llu %11llu | %+7.1f%%\n",
                    name.c_str(), by_size.totalBytes(),
                    by_traffic.totalBytes(),
                    static_cast<unsigned long long>(fetch_s),
                    static_cast<unsigned long long>(fetch_t),
                    100.0 * (static_cast<double>(fetch_t) -
                             static_cast<double>(fetch_s)) /
                        static_cast<double>(fetch_s));
    }
    std::printf("(s = size-optimal, t = traffic-optimal; the traffic "
                "dictionary moves fewer bytes but compresses worse "
                "statically)\n");
    return 0;
}
