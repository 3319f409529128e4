/**
 * @file
 * Tests for the compression core: candidate enumeration, greedy
 * selection (including lazy picker vs reference equivalence), codeword
 * encodings, layout/branch patching, and full execution equivalence of
 * compressed programs on the CompressedCpu.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "compress/greedy.hh"
#include "compress/objfile.hh"
#include "compress/pipeline.hh"
#include "isa/builder.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::compress;

namespace {

Program
smallProgram()
{
    return codegen::compile(R"(
        int table[16];
        int fill(int n) {
            int i;
            for (i = 0; i < 16; i = i + 1) table[i] = i * n + 3;
            return table[n & 15];
        }
        int sum() {
            int i;
            int acc = 0;
            for (i = 0; i < 16; i = i + 1) acc = acc + table[i];
            return acc;
        }
        int main() {
            int r = fill(5);
            r = r + fill(9);
            r = r + sum();
            puti(r);
            return r & 127;
        }
    )");
}

// ---------------- candidates ----------------

TEST(Candidates, EligibilityExcludesRelativeBranches)
{
    Program program = smallProgram();
    std::vector<bool> eligible = eligibilityMask(program);
    ASSERT_EQ(eligible.size(), program.text.size());
    for (size_t i = 0; i < program.text.size(); ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        EXPECT_EQ(eligible[i], !inst.isRelativeBranch()) << "index " << i;
    }
    // Sanity: the program does contain both kinds.
    EXPECT_NE(std::count(eligible.begin(), eligible.end(), false), 0);
    EXPECT_NE(std::count(eligible.begin(), eligible.end(), true), 0);
}

TEST(Candidates, SequencesStayInsideBlocks)
{
    Program program = smallProgram();
    Cfg cfg = Cfg::build(program);
    auto candidates = enumerateCandidates(program, cfg, 1, 4);
    EXPECT_FALSE(candidates.empty());
    for (const Candidate &cand : candidates) {
        for (uint32_t pos : cand.positions) {
            uint32_t block = cfg.blockOf(pos);
            EXPECT_EQ(cfg.blockOf(pos +
                                  static_cast<uint32_t>(cand.seq.size()) -
                                  1),
                      block);
            // Occurrence content matches the candidate key.
            for (size_t k = 0; k < cand.seq.size(); ++k)
                EXPECT_EQ(program.text[pos + k], cand.seq[k]);
        }
    }
}

/**
 * The enumeration oracle: every window of every block, grouped in a
 * std::map keyed by the sequence itself, then put in scan order (first
 * occurrence, then length). Slow and obviously right.
 */
std::vector<Candidate>
referenceCandidates(const Program &program, const Cfg &cfg, uint32_t minLen,
                    uint32_t maxLen)
{
    std::vector<bool> eligible = eligibilityMask(program);
    std::map<std::vector<isa::Word>, std::vector<uint32_t>> groups;
    for (const InstRange &block : cfg.blocks()) {
        uint32_t end = block.first + block.count;
        for (uint32_t start = block.first; start < end; ++start) {
            for (uint32_t len = minLen;
                 len <= maxLen && start + len <= end; ++len) {
                if (!std::all_of(eligible.begin() + start,
                                 eligible.begin() + start + len,
                                 [](bool ok) { return ok; }))
                    break;
                groups[std::vector<isa::Word>(
                           program.text.begin() + start,
                           program.text.begin() + start + len)]
                    .push_back(start);
            }
        }
    }
    std::vector<Candidate> candidates;
    for (auto &[seq, positions] : groups)
        candidates.push_back({seq, positions});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.positions.front() != b.positions.front())
                      return a.positions.front() < b.positions.front();
                  return a.seq.size() < b.seq.size();
              });
    return candidates;
}

/** enumerateCandidates equals the oracle: same order, same sequences,
 *  same position lists. */
void
expectMatchesOracle(const Program &program, uint32_t minLen,
                    uint32_t maxLen, const std::string &what)
{
    Cfg cfg = Cfg::build(program);
    std::vector<Candidate> got =
        enumerateCandidates(program, cfg, minLen, maxLen);
    std::vector<Candidate> want =
        referenceCandidates(program, cfg, minLen, maxLen);
    ASSERT_EQ(got.size(), want.size())
        << what << " lengths " << minLen << ".." << maxLen;
    for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].seq, want[i].seq)
            << what << " lengths " << minLen << ".." << maxLen
            << " candidate " << i;
        ASSERT_EQ(got[i].positions, want[i].positions)
            << what << " lengths " << minLen << ".." << maxLen
            << " candidate " << i;
    }
}

/** A hand-built, finalized program from encoded instructions. */
Program
handProgram(const std::vector<isa::Inst> &insts)
{
    Program program;
    for (const isa::Inst &inst : insts)
        program.text.push_back(isa::encode(inst));
    program.entryIndex = 0;
    program.finalize();
    return program;
}

const std::pair<uint32_t, uint32_t> kOracleLengths[] = {
    {1, 1}, {1, 4}, {2, 4}, {1, 8}, {3, 64}};

class EnumerationOracle : public ::testing::TestWithParam<std::string>
{};

TEST_P(EnumerationOracle, MatchesReferenceAtScales1And2)
{
    for (int scale : {1, 2}) {
        Program program = workloads::buildBenchmark(GetParam(), scale);
        for (auto [minLen, maxLen] : kOracleLengths)
            expectMatchesOracle(program, minLen, maxLen,
                                GetParam() + " scale " +
                                    std::to_string(scale));
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EnumerationOracle,
                         ::testing::ValuesIn(workloads::benchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(Candidates, EqualWindowsInDifferentBlocksShareOneCandidate)
{
    // Blocks [0,3] and [4,7] (4 is the branch target) hold the same
    // three-instruction run; the branch at 3 belongs to no candidate.
    Program program = handProgram(
        {isa::li(3, 1), isa::li(4, 2), isa::add(5, 3, 4), isa::b(1),
         isa::li(3, 1), isa::li(4, 2), isa::add(5, 3, 4), isa::blr()});
    Cfg cfg = Cfg::build(program);
    ASSERT_EQ(cfg.blocks().size(), 2u);
    std::vector<Candidate> candidates =
        enumerateCandidates(program, cfg, 3, 3);
    ASSERT_EQ(candidates.size(), 2u); // li,li,add and li,add,blr
    EXPECT_EQ(candidates[0].positions, (std::vector<uint32_t>{0, 4}));
    EXPECT_EQ(candidates[1].positions, (std::vector<uint32_t>{5}));
    for (auto [minLen, maxLen] : kOracleLengths)
        expectMatchesOracle(program, minLen, maxLen, "two blocks");
}

TEST(Candidates, RelativeBranchSplitsEqualWindows)
{
    // The conditional branch at 2 ends its block and is never part of a
    // candidate: li,li occurs twice but li,li,bc,li,li occurs nowhere.
    isa::Inst skip = isa::bc(isa::Bo::IfTrue,
                             isa::crBit(0, isa::CrBit::Eq), 1);
    Program program =
        handProgram({isa::li(3, 1), isa::li(4, 2), skip, isa::li(3, 1),
                     isa::li(4, 2), isa::blr()});
    Cfg cfg = Cfg::build(program);
    std::vector<Candidate> candidates =
        enumerateCandidates(program, cfg, 1, 8);
    for (const Candidate &cand : candidates) {
        EXPECT_LE(cand.seq.size(), 3u);
        for (isa::Word word : cand.seq)
            EXPECT_FALSE(isa::decode(word).isRelativeBranch());
    }
    for (auto [minLen, maxLen] : kOracleLengths)
        expectMatchesOracle(program, minLen, maxLen, "split");
}

TEST(Candidates, WindowsLongerThanTheirBlockAreClipped)
{
    // 70 equal instructions in one block: every length 3..64 recurs at
    // overlapping positions and none grows past maxLen. A two-word
    // block forms no window longer than itself.
    std::vector<isa::Inst> insts(70, isa::addi(3, 3, 1));
    insts.push_back(isa::blr());
    Program program = handProgram(insts);
    Cfg cfg = Cfg::build(program);
    std::vector<Candidate> candidates =
        enumerateCandidates(program, cfg, 3, 64);
    ASSERT_EQ(candidates.size(), 62u + 62u); // addi^n and addi^(n-1),blr
    EXPECT_EQ(candidates[61].seq.size(), 64u);
    EXPECT_EQ(candidates[61].positions.size(), 70u - 64u + 1u);
    Program tiny = handProgram({isa::li(3, 1), isa::blr()});
    EXPECT_TRUE(enumerateCandidates(tiny, Cfg::build(tiny), 3, 8).empty());
    for (auto [minLen, maxLen] : kOracleLengths)
        expectMatchesOracle(program, minLen, maxLen, "long run");
}

TEST(Candidates, SequenceTableNeverMergesOnHashCollision)
{
    // Every key hashes alike; only the verification tells them apart.
    std::vector<std::vector<isa::Word>> seqs = {{1}, {2}, {1, 2}, {2, 1}};
    SequenceTable table(seqs.size());
    for (uint32_t id = 0; id < seqs.size(); ++id)
        EXPECT_EQ(table.findOrInsert(0, id,
                                     [&](uint32_t other) {
                                         return seqs[other] == seqs[id];
                                     }),
                  id);
    for (uint32_t id = 0; id < seqs.size(); ++id)
        EXPECT_EQ(table.find(0, [&](uint32_t other) {
                      return seqs[other] == seqs[id];
                  }),
                  id);
    std::vector<isa::Word> absent = {3};
    EXPECT_FALSE(table.find(0, [&](uint32_t other) {
        return seqs[other] == absent;
    }));
    EXPECT_NE(SequenceTable::hashOf({1, 2}), SequenceTable::hashOf({2, 1}));
    EXPECT_NE(SequenceTable::hashOf({0}), SequenceTable::hashOf({0, 0}));
}

TEST(Candidates, CountNonOverlapping)
{
    // Positions 0,1,2,10 with length 2: 0 and 2 overlap 1; max is 0,2,10.
    std::vector<uint32_t> pos = {0, 1, 2, 10};
    EXPECT_EQ(countNonOverlapping(pos, 2, {}), 3u);
    EXPECT_EQ(countNonOverlapping(pos, 1, {}), 4u);
    EXPECT_EQ(countNonOverlapping(pos, 9, {}), 2u);

    std::vector<uint8_t> consumed(16, 0);
    consumed[11] = 1; // kills the occurrence at 10 for length 2
    EXPECT_EQ(countNonOverlapping(pos, 2, consumed), 2u);
}

// ---------------- greedy ----------------

TEST(Greedy, SavingsModel)
{
    GreedyConfig config; // 8 insn nibbles, 4 codeword nibbles, 8 dict
    // One occurrence of a single instruction: 8 - 4 - 8 < 0.
    EXPECT_LT(savingsNibbles(config, 1, 1), 0);
    // Three occurrences: 3*4 - 8 > 0.
    EXPECT_GT(savingsNibbles(config, 1, 3), 0);
    // Long sequences save more per occurrence.
    EXPECT_GT(savingsNibbles(config, 4, 2), savingsNibbles(config, 1, 2));
}

TEST(Greedy, PlacementsAreValid)
{
    Program program = smallProgram();
    GreedyConfig config;
    config.maxEntries = 64;
    SelectionResult sel = selectGreedy(program, config);
    EXPECT_FALSE(sel.dict.entries.empty());
    ASSERT_EQ(sel.useCount.size(), sel.dict.entries.size());

    std::vector<bool> covered(program.text.size(), false);
    std::vector<uint32_t> uses(sel.dict.entries.size(), 0);
    for (const Placement &p : sel.placements) {
        ASSERT_LT(p.entryId, sel.dict.entries.size());
        const auto &entry = sel.dict.entries[p.entryId];
        ASSERT_EQ(entry.size(), p.length);
        for (uint32_t k = 0; k < p.length; ++k) {
            EXPECT_EQ(program.text[p.start + k], entry[k]);
            EXPECT_FALSE(covered[p.start + k]) << "overlap at "
                                               << p.start + k;
            covered[p.start + k] = true;
        }
        ++uses[p.entryId];
    }
    EXPECT_EQ(uses, sel.useCount);
}

TEST(Greedy, LazyHeapMatchesReference)
{
    // The lazy picker must be *exactly* the greedy algorithm, not an
    // approximation (DESIGN.md section 5.2).
    Program program = smallProgram();
    for (uint32_t max_len : {1u, 2u, 4u, 8u}) {
        GreedyConfig config;
        config.maxEntries = 128;
        config.maxEntryLen = max_len;
        SelectionResult fast = selectGreedy(program, config);
        SelectionResult slow = selectGreedyReference(program, config);
        EXPECT_EQ(fast.dict.entries, slow.dict.entries)
            << "maxEntryLen=" << max_len;
        EXPECT_EQ(fast.placements, slow.placements);
        EXPECT_EQ(fast.useCount, slow.useCount);
    }
}

TEST(Greedy, StaleHeapReevaluationMatchesReference)
{
    // Dense prefix/suffix overlap between candidates: accepting any
    // top candidate destroys occurrences of many others, so the picker
    // repeatedly pops entries with stale cached savings and must
    // re-evaluate and re-push them. The lazy picker and the from-scratch
    // reference must still agree exactly, and acceptance (which shares
    // forEachNonOverlapping with re-evaluation) must never trip the
    // "no live occurrences" assert.
    Program program = workloads::buildBenchmark("compress");
    for (uint32_t max_len : {2u, 4u, 8u}) {
        GreedyConfig config;
        config.maxEntries = 48;
        config.maxEntryLen = max_len;
        SelectionResult fast = selectGreedy(program, config);
        SelectionResult slow = selectGreedyReference(program, config);
        EXPECT_EQ(fast.dict.entries, slow.dict.entries)
            << "maxEntryLen=" << max_len;
        EXPECT_EQ(fast.placements, slow.placements);
        EXPECT_EQ(fast.useCount, slow.useCount);
    }
}

TEST(Greedy, RespectsEntryBudget)
{
    Program program = workloads::buildBenchmark("compress");
    GreedyConfig config;
    config.maxEntries = 16;
    SelectionResult sel = selectGreedy(program, config);
    EXPECT_LE(sel.dict.entries.size(), 16u);
    EXPECT_EQ(sel.dict.entries.size(), 16u); // plenty of candidates exist
}

TEST(Greedy, RespectsLengthLimit)
{
    Program program = workloads::buildBenchmark("compress");
    GreedyConfig config;
    config.maxEntries = 256;
    config.maxEntryLen = 2;
    SelectionResult sel = selectGreedy(program, config);
    for (const auto &entry : sel.dict.entries)
        EXPECT_LE(entry.size(), 2u);
}

/** The greedy picker and the from-scratch reference agree exactly. */
void
expectGreedyMatchesReference(size_t textSize,
                             const std::vector<Candidate> &candidates,
                             const GreedyConfig &config,
                             const std::vector<uint32_t> &costs,
                             const std::string &what)
{
    SelectionResult fast =
        selectGreedyFromCandidates(textSize, candidates, config, costs);
    SelectionResult slow = selectGreedyReferenceFromCandidates(
        textSize, candidates, config, costs);
    EXPECT_EQ(fast.dict.entries, slow.dict.entries) << what;
    EXPECT_EQ(fast.placements, slow.placements) << what;
    EXPECT_EQ(fast.useCount, slow.useCount) << what;
}

class GreedyOracle : public ::testing::TestWithParam<std::string>
{};

TEST_P(GreedyOracle, MatchesReferenceUnderEveryCodecAndCost)
{
    // Every codec's derived config, each uniform codeword width, and a
    // per-candidate cost vector of the shape refit passes. A budget of
    // 96 entries keeps the O(candidates x selections) reference fast.
    Program program = workloads::buildBenchmark(GetParam());
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        PipelineContext ctx(program, config);
        ctx.greedy.maxEntries = 96;
        passEnumerate(ctx);
        const std::vector<Candidate> &candidates = ctx.candidateList();
        std::string what = GetParam() + " " + schemeName(scheme);
        expectGreedyMatchesReference(program.text.size(), candidates,
                                     ctx.greedy, {}, what + " derived");
        for (uint32_t width = 1; width <= 4; ++width) {
            GreedyConfig uniform = ctx.greedy;
            uniform.codewordNibbles = width;
            expectGreedyMatchesReference(
                program.text.size(), candidates, uniform, {},
                what + " width " + std::to_string(width));
        }
        Rng rng(0x5eed + static_cast<uint64_t>(scheme));
        std::vector<uint32_t> costs(candidates.size());
        for (uint32_t &cost : costs)
            cost = static_cast<uint32_t>(1 + rng.below(4));
        expectGreedyMatchesReference(program.text.size(), candidates,
                                     ctx.greedy, costs, what + " costs");
    }
}

TEST_P(GreedyOracle, StandaloneCountsMatchCountNonOverlapping)
{
    Program program = workloads::buildBenchmark(GetParam());
    Cfg cfg = Cfg::build(program);
    std::vector<Candidate> candidates =
        enumerateCandidates(program, cfg, 1, 8);
    std::vector<uint32_t> counts = standaloneCounts(candidates);
    ASSERT_EQ(counts.size(), candidates.size());
    for (size_t id = 0; id < candidates.size(); ++id)
        ASSERT_EQ(counts[id],
                  countNonOverlapping(
                      candidates[id].positions,
                      static_cast<uint32_t>(candidates[id].seq.size()),
                      {}))
            << GetParam() << " candidate " << id;
}

INSTANTIATE_TEST_SUITE_P(Workloads, GreedyOracle,
                         ::testing::ValuesIn(workloads::benchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(Greedy, TiesBreakTowardTheLowerCandidateId)
{
    // Single instructions only. li 4 (id 0), li 3 (id 1) and li 5
    // (id 2) occur three times each and tie on savings; addi occurs
    // four times, comes last (id 3) and saves the most. The picker
    // takes savings descending, then ids ascending: addi, li 4, li 3.
    isa::Inst a = isa::li(4, 2), b = isa::li(3, 1), c = isa::li(5, 3),
              d = isa::addi(3, 3, 1);
    Program program = handProgram(
        {a, b, c, a, b, c, a, b, c, d, d, d, d, isa::blr()});
    Cfg cfg = Cfg::build(program);
    std::vector<Candidate> candidates =
        enumerateCandidates(program, cfg, 1, 1);
    ASSERT_GE(candidates.size(), 4u);
    EXPECT_EQ(candidates[3].seq, (std::vector<isa::Word>{isa::encode(d)}));
    GreedyConfig config;
    config.maxEntries = 3;
    config.maxEntryLen = 1;
    SelectionResult sel = selectGreedyFromCandidates(
        program.text.size(), candidates, config);
    std::vector<std::vector<isa::Word>> want = {
        {isa::encode(d)}, {isa::encode(a)}, {isa::encode(b)}};
    EXPECT_EQ(sel.dict.entries, want);
    EXPECT_EQ(sel.useCount, (std::vector<uint32_t>{4, 3, 3}));
    ASSERT_EQ(sel.placements.size(), 10u);
    for (size_t i = 1; i < sel.placements.size(); ++i)
        EXPECT_LT(sel.placements[i - 1].start, sel.placements[i].start);
    expectGreedyMatchesReference(program.text.size(), candidates, config,
                                 {}, "ties");
}

// ---------------- encodings ----------------

TEST(Encoding, SchemeParameters)
{
    EXPECT_EQ(schemeParams(Scheme::Baseline).maxCodewords, 8192u);
    EXPECT_EQ(schemeParams(Scheme::OneByte).maxCodewords, 32u);
    EXPECT_EQ(schemeParams(Scheme::Nibble).maxCodewords, 4680u);
    EXPECT_EQ(schemeParams(Scheme::Baseline).unitNibbles, 4u);
    EXPECT_EQ(schemeParams(Scheme::OneByte).unitNibbles, 2u);
    EXPECT_EQ(schemeParams(Scheme::Nibble).unitNibbles, 1u);
}

TEST(Encoding, NibbleCodewordLengthsByRank)
{
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 0), 1u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 7), 1u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 8), 2u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 71), 2u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 72), 3u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 583), 3u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 584), 4u);
    EXPECT_EQ(codewordNibbles(Scheme::Nibble, 4679), 4u);
}

class EncodingRoundTrip : public ::testing::TestWithParam<Scheme>
{};

TEST_P(EncodingRoundTrip, MixedStreamDecodes)
{
    Scheme scheme = GetParam();
    SchemeParams params = schemeParams(scheme);
    Rng rng(7);

    // Random interleaving of codewords and instructions.
    std::vector<std::optional<uint32_t>> expected;
    NibbleWriter writer;
    for (int i = 0; i < 500; ++i) {
        if (rng.chance(1, 2)) {
            uint32_t rank =
                static_cast<uint32_t>(rng.below(params.maxCodewords));
            emitCodeword(writer, scheme, rank);
            expected.push_back(rank);
        } else {
            isa::Word word = isa::encode(
                isa::addi(static_cast<uint8_t>(rng.below(32)),
                          static_cast<uint8_t>(rng.below(32)),
                          static_cast<int32_t>(rng.range(-100, 100))));
            emitInstruction(writer, scheme, word);
            expected.push_back(std::nullopt);
        }
    }

    NibbleReader reader(writer.bytes().data(), writer.nibbleCount());
    for (const auto &want : expected) {
        auto got = decodeCodeword(reader, scheme);
        EXPECT_EQ(got.has_value(), want.has_value());
        if (want && got) {
            EXPECT_EQ(*got, *want);
        } else if (!want) {
            reader.getWord(); // consume the instruction
        }
    }
    EXPECT_TRUE(reader.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Schemes, EncodingRoundTrip,
                         ::testing::ValuesIn(allSchemes()),
                         [](const auto &info) {
                             return schemeTestName(info.param);
                         });

TEST(Encoding, BaselineEscapeBytesUseIllegalOpcodes)
{
    // Every codeword's first byte must decode as an illegal opcode and
    // every legal instruction's first byte must not (the paper's
    // backward-compatibility property, section 4.1).
    for (uint32_t rank : {0u, 255u, 256u, 4095u, 8191u}) {
        NibbleWriter writer;
        emitCodeword(writer, Scheme::Baseline, rank);
        uint8_t first = writer.bytes()[0];
        EXPECT_TRUE(isa::isIllegalPrimOp(first >> 2)) << rank;
    }
}

// ---------------- end-to-end compression ----------------

TEST(Compressor, SmallProgramShrinksAndRuns)
{
    Program program = smallProgram();
    ExecResult original = runProgram(program);

    CompressorConfig config;
    CompressedImage image = compressProgram(program, config);

    EXPECT_LT(image.compressionRatio(), 1.0);
    EXPECT_GT(image.compressionRatio(), 0.2);
    EXPECT_EQ(image.originalTextBytes, program.textBytes());

    ExecResult compressed = runCompressed(image);
    EXPECT_EQ(compressed.output, original.output);
    EXPECT_EQ(compressed.exitCode, original.exitCode);
}

TEST(Compressor, CompositionSumsToImageSize)
{
    Program program = workloads::buildBenchmark("compress");
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        CompressedImage image = compressProgram(program, config);
        EXPECT_EQ(image.composition.totalNibbles(),
                  image.textNibbles + image.dictionaryBytes() * 2)
            << schemeName(scheme);
        if (scheme == Scheme::Baseline) {
            // 2-byte codewords: escape and index bytes are equal.
            EXPECT_EQ(image.composition.escapeNibbles,
                      image.composition.codewordNibbles);
        }
    }
}

TEST(Compressor, AddressMapIsMonotoneAndComplete)
{
    Program program = workloads::buildBenchmark("li");
    CompressorConfig config;
    CompressedImage image = compressProgram(program, config);

    // Every branch target and jump-table target resolves.
    for (uint32_t i = 0; i < program.text.size(); ++i) {
        isa::Inst inst = isa::decode(program.text[i]);
        if (inst.isRelativeBranch()) {
            EXPECT_TRUE(
                image.addrMap.count(program.branchTargetIndex(i)));
        }
    }
    for (const CodeReloc &reloc : program.codeRelocs) {
        EXPECT_TRUE(image.addrMap.count(reloc.targetIndex));
    }

    // Monotone in original index.
    uint32_t prev = 0;
    bool first = true;
    for (uint32_t i = 0; i < program.text.size(); ++i) {
        auto it = image.addrMap.find(i);
        if (it == image.addrMap.end())
            continue;
        if (!first) {
            EXPECT_GT(it->second, prev) << "at index " << i;
        }
        prev = it->second;
        first = false;
    }
}

TEST(Compressor, MoreCodewordsNeverHurt)
{
    Program program = workloads::buildBenchmark("ijpeg");
    double prev_ratio = 1.0;
    for (uint32_t budget : {16u, 64u, 256u, 1024u, 8192u}) {
        CompressorConfig config;
        config.maxEntries = budget;
        CompressedImage image = compressProgram(program, config);
        EXPECT_LE(image.compressionRatio(), prev_ratio + 1e-9)
            << "budget " << budget;
        prev_ratio = image.compressionRatio();
    }
    EXPECT_LT(prev_ratio, 0.85); // meaningful compression at 8192
}

// ---------------- parallel determinism ----------------

TEST(Candidates, EnumerationIdenticalAcrossJobCounts)
{
    Program program = workloads::buildBenchmark("compress");
    Cfg cfg = Cfg::build(program);
    setGlobalJobs(1);
    auto serial = enumerateCandidates(program, cfg, 1, 4);
    for (unsigned jobs : {2u, 3u, 8u}) {
        setGlobalJobs(jobs);
        auto parallel = enumerateCandidates(program, cfg, 1, 4);
        ASSERT_EQ(parallel.size(), serial.size()) << "jobs " << jobs;
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].seq, serial[i].seq)
                << "jobs " << jobs << " candidate " << i;
            EXPECT_EQ(parallel[i].positions, serial[i].positions)
                << "jobs " << jobs << " candidate " << i;
        }
    }
    setGlobalJobs(0);
}

TEST(Compressor, ImageBitIdenticalAcrossJobCounts)
{
    // The determinism contract of the parallel pipeline: for every
    // scheme, --jobs 1/2/8 must produce byte-for-byte identical
    // compressed images, down to the serialized .cci file.
    Program program = workloads::buildBenchmark("li");
    for (Scheme scheme : allSchemes()) {
        CompressorConfig config;
        config.scheme = scheme;
        setGlobalJobs(1);
        CompressedImage serial = compressProgram(program, config);
        std::vector<uint8_t> serialBytes = saveImage(serial);
        for (unsigned jobs : {2u, 8u}) {
            setGlobalJobs(jobs);
            CompressedImage parallel = compressProgram(program, config);
            EXPECT_EQ(parallel.text, serial.text)
                << schemeName(scheme) << " jobs " << jobs;
            EXPECT_EQ(parallel.textNibbles, serial.textNibbles);
            EXPECT_EQ(parallel.entriesByRank, serial.entriesByRank);
            EXPECT_EQ(parallel.data, serial.data);
            EXPECT_EQ(parallel.entryPointNibble,
                      serial.entryPointNibble);
            EXPECT_EQ(saveImage(parallel), serialBytes)
                << schemeName(scheme) << " jobs " << jobs;
        }
    }
    setGlobalJobs(0);
}

/** Every benchmark x every scheme: compressed execution must match. */
class CompressedExecution
    : public ::testing::TestWithParam<std::tuple<std::string, Scheme>>
{};

TEST_P(CompressedExecution, MatchesOriginal)
{
    const auto &[name, scheme] = GetParam();
    Program program = workloads::buildBenchmark(name);
    ExecResult original = runProgram(program);

    CompressorConfig config;
    config.scheme = scheme;
    CompressedImage image = compressProgram(program, config);
    EXPECT_LT(image.compressionRatio(), 1.0) << "no compression achieved";

    ExecResult compressed = runCompressed(image);
    EXPECT_EQ(compressed.output, original.output);
    EXPECT_EQ(compressed.exitCode, original.exitCode);
    // Without far-branch stubs the dynamic instruction streams are
    // identical, down to the count.
    if (image.farBranchExpansions == 0)
        EXPECT_EQ(compressed.instCount, original.instCount);
    else
        EXPECT_GE(compressed.instCount, original.instCount);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, CompressedExecution,
    ::testing::Combine(::testing::Values("compress", "li", "ijpeg", "go"),
                       ::testing::ValuesIn(allSchemes())),
    [](const auto &info) {
        return std::get<0>(info.param) + std::string("_") +
               schemeTestName(std::get<1>(info.param));
    });

} // namespace
