/**
 * @file
 * Extension: quantify the related-work comparisons the paper makes
 * qualitatively (sections 2.3 and 2.4) -- CCRP (per-line Huffman + LAT)
 * and Liao's call-dictionary (1- and 2-word codewords) and
 * mini-subroutine methods, against this paper's baseline and nibble
 * schemes, on identical programs.
 *
 * Expected ordering: Liao's methods trail because their codewords are
 * full instruction words (single instructions never compress); the
 * nibble scheme leads; CCRP sits between (entropy coding, but byte-
 * rounded lines + LAT overhead).
 */

#include "baselines/ccrp.hh"
#include "baselines/liao.hh"
#include "compress/compressor.hh"
#include "common.hh"

using namespace codecomp;
using namespace codecomp::bench;

int
main(int argc, char **argv)
{
    initJobs(argc, argv);
    banner("Extension", "comparators on identical programs");
    std::printf("%-9s %9s %9s %9s %9s %9s %9s\n", "bench", "baseline",
                "nibble", "ccrp", "liao-1w", "liao-2w", "liao-sw");
    for (const auto &[name, program] : buildSuite()) {
        compress::CompressorConfig base;
        base.scheme = compress::Scheme::Baseline;
        compress::CompressorConfig nib;
        nib.scheme = compress::Scheme::Nibble;
        nib.maxEntries = 4680;

        baselines::LiaoConfig liao1;
        baselines::LiaoConfig liao2;
        liao2.codewordWords = 2;
        baselines::LiaoConfig liaosw;
        liaosw.softwareMethod = true;

        std::printf(
            "%-9s %9s %9s %9s %9s %9s %9s\n", name.c_str(),
            pct(compress::compressProgram(program, base)
                    .compressionRatio())
                .c_str(),
            pct(compress::compressProgram(program, nib)
                    .compressionRatio())
                .c_str(),
            pct(baselines::ccrpCompress(program).compressionRatio())
                .c_str(),
            pct(baselines::liaoCompress(program, liao1)
                    .compressionRatio())
                .c_str(),
            pct(baselines::liaoCompress(program, liao2)
                    .compressionRatio())
                .c_str(),
            pct(baselines::liaoCompress(program, liaosw)
                    .compressionRatio())
                .c_str());
    }
    std::printf("expected ordering: nibble < baseline; liao-2w worst of "
                "liao's (cannot compress short sequences)\n");
    return 0;
}
