/**
 * @file
 * Table 1: usage of bits in branch offset fields -- how many static
 * PC-relative branches lack the spare offset bits needed to address
 * targets at 2-byte, 1-byte, and 4-bit granularity.
 *
 * Paper: the affected share is small and grows with finer granularity
 * (e.g. gcc: 56k branches; 0.1% lack 2-byte, 0.4% lack 1-byte, 1.8%
 * lack 4-bit resolution -- magnitudes vary per benchmark).
 */

#include "analysis/analysis.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Table 1", "usage of bits in branch offset field");
    std::printf("%-9s %10s | %8s %7s | %8s %7s | %8s %7s\n", "bench",
                "pc-rel br", "no-2B", "%", "no-1B", "%", "no-4bit", "%");
    for (const auto &[name, program] : buildSuite()) {
        analysis::BranchOffsetUsage usage =
            analysis::analyzeBranchOffsets(program);
        double n = usage.pcRelativeBranches;
        std::printf("%-9s %10u | %8u %7s | %8u %7s | %8u %7s\n",
                    name.c_str(), usage.pcRelativeBranches, usage.lack2Byte,
                    pct(usage.lack2Byte / n).c_str(), usage.lack1Byte,
                    pct(usage.lack1Byte / n).c_str(), usage.lack4Bit,
                    pct(usage.lack4Bit / n).c_str());
    }
    std::printf("shape check: no-2B <= no-1B <= no-4bit, all small "
                "minorities (paper: 0-10%% range)\n");
    return 0;
}
