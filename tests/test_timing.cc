/**
 * @file
 * Tests for the cycle-approximate timing model (src/timing): config
 * validation, exact stall arithmetic over synthetic fetch streams,
 * bit-identical determinism across repeated runs and across
 * differently-parallelized builds of the same image, golden cycle
 * counts on two workloads, and the directed density property (a denser
 * image never misses more in the capacity-limited geometry).
 *
 * Every test name carries the Timing prefix: the `timing` ctest label
 * (tests/CMakeLists.txt) and test preset select on it.
 */

#include <gtest/gtest.h>

#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "decompress/fault.hh"
#include "isa/builder.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::timing;

namespace {

TimingConfig
testModel()
{
    TimingConfig config;
    config.frontendWidth = 1;
    config.icache = {2048, 32, 1};
    config.missPenaltyCycles = 10;
    config.memoryCyclesPerWord = 1;  // fill = 10 + 32/4 = 18 cycles
    config.expansionCyclesPerWord = 1;
    config.redirectPenaltyCycles = 2;
    return config;
}

TEST(TimingConfig, ValidationRejectsBadModels)
{
    TimingConfig config = testModel();
    EXPECT_EQ(timingConfigError(config), "");

    config.frontendWidth = 0;
    EXPECT_NE(timingConfigError(config), "");
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModel();
    config.frontendWidth = 17;
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    // Cache errors surface through the timing validator, prefixed.
    config = testModel();
    config.icache = {100, 32, 1};
    EXPECT_NE(timingConfigError(config).find("icache:"),
              std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModel();
    config.missPenaltyCycles = 100000;
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);
}

TEST(TimingFetchTimer, ChargesExactCycles)
{
    TimingConfig config = testModel();
    config.frontendWidth = 2;
    FetchTimer timer(config);

    // Cold 4-byte fetch: one line fill (18 cycles), one instruction.
    timer.onFetch({0, 4, 1, false, false});
    // Hit in the same line: no stall.
    timer.onFetch({4, 4, 1, false, false});
    // Straddling codeword expanding 3 instructions, taken branch at the
    // end: second line is cold (one more fill), expansion charges
    // 2 extra words, redirect charges 2.
    timer.onFetch({30, 4, 3, true, true});

    TimingReport report = timer.report();
    EXPECT_EQ(report.instructions, 5u);
    EXPECT_EQ(report.items, 3u);
    EXPECT_EQ(report.fetchedBytes, 12u);
    EXPECT_EQ(report.baseCycles, 3u); // ceil(5 / width 2)
    EXPECT_EQ(report.stallIcacheMiss, 2u * 18u);
    EXPECT_EQ(report.stallExpansion, 2u);
    EXPECT_EQ(report.stallRedirect, 2u);
    EXPECT_EQ(report.cycles(), 3u + 36u + 2u + 2u);
    EXPECT_EQ(report.icache.accesses, 4u); // straddle counts twice
    EXPECT_EQ(report.icache.misses, 2u);
    EXPECT_DOUBLE_EQ(report.cpi(), static_cast<double>(43) / 5);

    // reset() forgets cache contents too: the same stream recharges.
    timer.reset();
    timer.onFetch({0, 4, 1, false, false});
    EXPECT_EQ(timer.report().stallIcacheMiss, 18u);
}

TEST(TimingReport, JsonCarriesEveryField)
{
    FetchTimer timer(testModel());
    timer.onFetch({0, 4, 1, false, false});
    std::string json = timer.report().toJson();
    for (const char *field :
         {"\"instructions\"", "\"items\"", "\"fetched_bytes\"",
          "\"cycles\"", "\"cpi\"", "\"base_cycles\"",
          "\"stall_icache_miss\"", "\"stall_l2_miss\"",
          "\"stall_expansion\"", "\"stall_redirect\"", "\"accesses\"",
          "\"misses\"", "\"line_fills\"", "\"evictions\"",
          "\"miss_rate\"", "\"l2\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

/** Time one full run of @p image under the test model. */
TimingReport
timeImage(const compress::CompressedImage &image)
{
    FetchTimer timer(testModel());
    CompressedCpu cpu(image);
    cpu.setFetchHook(timer.hook());
    cpu.run();
    return timer.report();
}

TimingReport
timeNative(const Program &program)
{
    FetchTimer timer(testModel());
    Cpu cpu(program);
    cpu.setFetchHook(timer.hook());
    cpu.run();
    return timer.report();
}

TEST(TimingDeterminism, RepeatedRunsAndJobCountsAgree)
{
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;

    setGlobalJobs(1);
    compress::CompressedImage serial = compress::compressProgram(p, config);
    setGlobalJobs(4);
    compress::CompressedImage parallel =
        compress::compressProgram(p, config);

    TimingReport first = timeImage(serial);
    TimingReport again = timeImage(serial);
    TimingReport acrossJobs = timeImage(parallel);

    // Bit-identical across repeated runs and across --jobs-built
    // images, as both the report and its serialization.
    EXPECT_EQ(first, again);
    EXPECT_EQ(first, acrossJobs);
    EXPECT_EQ(first.toJson(), acrossJobs.toJson());

    TimingReport native = timeNative(p);
    EXPECT_EQ(native, timeNative(p));
    // Same architectural work on both processors (lockstep invariant).
    EXPECT_EQ(native.instructions, first.instructions);
}

/**
 * Golden cycle counts. These pin the whole chain -- workload codegen,
 * compression, execution, and the timing arithmetic -- to exact values
 * under the fixed test model; any drift is a deliberate change to one
 * of those layers and must update the goldens with it (DESIGN.md
 * section 9.4).
 */
TEST(TimingGolden, CompressWorkloadCycleCounts)
{
    Program p = workloads::buildBenchmark("compress");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    TimingReport native = timeNative(p);
    TimingReport compressed = timeImage(compress::compressProgram(p, config));
    EXPECT_EQ(native.cycles(), 451332u);
    EXPECT_EQ(compressed.cycles(), 449633u);
}

TEST(TimingGolden, LiWorkloadCycleCounts)
{
    Program p = workloads::buildBenchmark("li");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    TimingReport native = timeNative(p);
    TimingReport compressed = timeImage(compress::compressProgram(p, config));
    // Here the instrument reads the other way: li's native working set
    // fits the 2KB cache, so expansion and redirect stalls are not paid
    // back by miss savings. Density helps exactly when capacity binds.
    EXPECT_EQ(native.cycles(), 495147u);
    EXPECT_EQ(compressed.cycles(), 576385u);
}

TEST(TimingDensity, DenserImageMissesNoMoreWhenCapacityLimited)
{
    // The directed form of the paper's motivation: in the
    // capacity-limited geometry, the denser image's fetch stream can
    // not miss more than the native one.
    Program p = workloads::buildBenchmark("go");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    config.maxEntries = 4680;
    compress::CompressedImage image = compress::compressProgram(p, config);

    TimingReport native = timeNative(p);
    TimingReport compressed = timeImage(image);
    EXPECT_LE(compressed.icache.misses, native.icache.misses);
    EXPECT_LT(compressed.fetchedBytes, native.fetchedBytes);
}

/** The test model with a unified L2 behind the 2KB L1: an L2 hit
 *  refills the L1 line in 4 + 32/4 = 12 cycles instead of 18. */
TimingConfig
testModelL2()
{
    TimingConfig config = testModel();
    config.l2 = {8192, 32, 2};
    config.l2HitPenaltyCycles = 4;
    config.l2CyclesPerWord = 1;
    return config;
}

TEST(TimingL2Config, ValidationRejectsBadHierarchies)
{
    EXPECT_EQ(timingConfigError(testModelL2()), "");

    // L2 geometry errors surface through the validator, prefixed.
    TimingConfig config = testModelL2();
    config.l2 = {3072, 32, 1}; // 96 sets: not a power of two
    EXPECT_NE(timingConfigError(config).find("l2:"), std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    // The hierarchy is inclusive: an L2 below the L1 capacity can
    // never hold the L1's contents.
    config = testModelL2();
    config.l2 = {1024, 32, 1};
    EXPECT_NE(timingConfigError(config).find("at least the L1 capacity"),
              std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModelL2();
    config.l2 = {8192, 16, 2}; // L2 line below the L1 line
    EXPECT_NE(timingConfigError(config).find("at least the L1 line"),
              std::string::npos);

    // An L2 hit must be cheaper than going to memory, or the "L2" is
    // not a cache at all.
    config = testModelL2();
    config.l2HitPenaltyCycles = 50;
    EXPECT_NE(timingConfigError(config).find("memory fill"),
              std::string::npos);
    EXPECT_THROW(FetchTimer{config}, std::runtime_error);

    config = testModelL2();
    config.l2CyclesPerWord = 20000;
    EXPECT_NE(timingConfigError(config), "");

    // Zero capacity is the disabled sentinel, not an error.
    config = testModelL2();
    config.l2 = {0, 32, 1};
    EXPECT_FALSE(config.hasL2());
    EXPECT_EQ(timingConfigError(config), "");
}

TEST(TimingL2Hierarchy, ChargesExactStallsPerLevel)
{
    FetchTimer timer(testModelL2());

    // Cold fetch: misses both levels; memory refills both (18 cycles,
    // attributed to the L2 miss).
    timer.onFetch({0, 4, 1, false, false});
    // Same line: L1 hit, no L2 access.
    timer.onFetch({4, 4, 1, false, false});
    // 2048 maps to L1 set 0 (64 sets x 32B, direct-mapped): evicts
    // line 0 from the L1. Cold in the L2 too: another 18.
    timer.onFetch({2048, 4, 1, false, false});
    // Line 0 again: L1 miss (just evicted), but the inclusive L2
    // still holds it -- refill from L2 for 12 cycles.
    timer.onFetch({0, 4, 1, false, false});

    TimingReport report = timer.report();
    EXPECT_EQ(report.baseCycles, 4u);
    EXPECT_EQ(report.stallL2Miss, 2u * 18u);
    EXPECT_EQ(report.stallIcacheMiss, 12u);
    EXPECT_EQ(report.cycles(), 4u + 36u + 12u);
    EXPECT_EQ(report.icache.misses, 3u);
    EXPECT_EQ(report.l2.accesses, 3u); // only L1 misses reach the L2
    EXPECT_EQ(report.l2.misses, 2u);

    // reset() forgets both levels.
    timer.reset();
    timer.onFetch({0, 4, 1, false, false});
    EXPECT_EQ(timer.report().stallL2Miss, 18u);
    EXPECT_EQ(timer.report().stallIcacheMiss, 0u);
}

/** Run @p cpu once, feeding a single-level and a two-level timer the
 *  same fetch stream; returns (without L2, with L2). */
template <typename AnyCpu>
std::pair<TimingReport, TimingReport>
timeBothModels(AnyCpu &cpu)
{
    FetchTimer flat(testModel());
    FetchTimer two(testModelL2());
    cpu.setFetchHook([&](const FetchEvent &event) {
        flat.onFetch(event);
        two.onFetch(event);
    });
    cpu.run();
    return {flat.report(), two.report()};
}

TEST(TimingL2Hierarchy, AddingL2NeverIncreasesCycles)
{
    // Exactly provable, not just expected: the L1 miss pattern is
    // independent of the L2, and every miss costs l2FillCycles() <=
    // lineFillCycles() when it hits the L2, lineFillCycles() when it
    // does not. Directed check over every workload, both processors.
    for (const std::string &name : workloads::benchmarkNames()) {
        Program program = workloads::buildBenchmark(name);
        {
            Cpu cpu(program);
            auto [flat, two] = timeBothModels(cpu);
            EXPECT_LE(two.cycles(), flat.cycles()) << name;
            // Same L1 behavior in both models; stalls only rebalance
            // between the icache-miss and l2-miss buckets.
            EXPECT_EQ(two.icache, flat.icache) << name;
            EXPECT_EQ(two.stallIcacheMiss + two.stallL2Miss <=
                          flat.stallIcacheMiss,
                      true)
                << name;
        }
        compress::CompressorConfig config;
        config.scheme = compress::Scheme::Nibble;
        compress::CompressedImage image =
            compress::compressProgram(program, config);
        CompressedCpu cpu(image);
        auto [flat, two] = timeBothModels(cpu);
        EXPECT_LE(two.cycles(), flat.cycles()) << name;
        EXPECT_EQ(two.icache, flat.icache) << name;
        EXPECT_EQ(two.stallExpansion, flat.stallExpansion) << name;
        EXPECT_EQ(two.stallRedirect, flat.stallRedirect) << name;
    }
}

// ---------------- the fetch-observer seam ----------------
//
// Each processor has one step body instantiated per observer
// (fetch.hh): FetchTimer::hook() runs it with onFetch inlined, a lambda
// hook calls through std::function per item, and step() takes the
// per-item path whatever the hook. All three must see one stream.

/** A model that reaches every charge: an L2 behind a small L1, and a
 *  decoded cache over the four hottest ranks. */
TimingConfig
seamModel()
{
    TimingConfig config = testModelL2();
    config.icache = {1024, 16, 2};
    config.decodedCacheRanks = 4;
    return config;
}

/** One processor's run three ways, plus an unhooked run. */
struct SeamRuns
{
    TimingReport inlined, perEvent, stepped;
    FetchStats inlinedStats, perEventStats, steppedStats, plainStats;
    ExecResult inlinedResult, perEventResult, plainResult;
};

template <typename AnyCpu, typename Source>
SeamRuns
runSeam(const Source &source)
{
    SeamRuns runs;
    {
        FetchTimer timer(seamModel());
        AnyCpu cpu(source);
        cpu.setFetchHook(timer.hook());
        runs.inlinedResult = cpu.run();
        runs.inlined = timer.report();
        runs.inlinedStats = cpu.fetchStats();
    }
    {
        FetchTimer timer(seamModel());
        AnyCpu cpu(source);
        cpu.setFetchHook(
            [&timer](const FetchEvent &event) { timer.onFetch(event); });
        runs.perEventResult = cpu.run();
        runs.perEvent = timer.report();
        runs.perEventStats = cpu.fetchStats();
    }
    {
        FetchTimer timer(seamModel());
        AnyCpu cpu(source);
        cpu.setFetchHook(timer.hook());
        while (cpu.step()) {
        }
        runs.stepped = timer.report();
        runs.steppedStats = cpu.fetchStats();
    }
    AnyCpu cpu(source);
    runs.plainResult = cpu.run();
    runs.plainStats = cpu.fetchStats();
    return runs;
}

void
expectSeamAgrees(const SeamRuns &runs)
{
    EXPECT_EQ(runs.inlined, runs.perEvent);
    EXPECT_EQ(runs.inlined, runs.stepped);
    EXPECT_EQ(runs.inlined.toJson(), runs.perEvent.toJson());
    EXPECT_GT(runs.inlined.l2.accesses, 0u);
    EXPECT_EQ(runs.inlinedStats, runs.plainStats);
    EXPECT_EQ(runs.perEventStats, runs.plainStats);
    EXPECT_EQ(runs.steppedStats, runs.plainStats);
    EXPECT_EQ(runs.inlinedResult, runs.plainResult);
    EXPECT_EQ(runs.perEventResult, runs.plainResult);
    EXPECT_EQ(runs.inlined.items, runs.plainStats.itemFetches);
    EXPECT_EQ(runs.inlined.instructions, runs.plainResult.instCount);
}

class TimingHookSeam
    : public ::testing::TestWithParam<
          std::tuple<std::string, compress::Scheme>>
{
};

TEST_P(TimingHookSeam, InlinedPerEventAndSteppedReportsAgree)
{
    const auto &[name, scheme] = GetParam();
    Program program = workloads::buildBenchmark(name);
    compress::CompressorConfig config;
    config.scheme = scheme;
    compress::CompressedImage image =
        compress::compressProgram(program, config);

    SeamRuns compressed = runSeam<CompressedCpu>(image);
    expectSeamAgrees(compressed);
    // The native stream does not depend on the scheme; time it once.
    if (scheme == compress::allSchemes().front())
        expectSeamAgrees(runSeam<Cpu>(program));
    EXPECT_EQ(compressed.plainResult.output,
              runProgram(program).output);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimingHookSeam,
    ::testing::Combine(::testing::ValuesIn(workloads::benchmarkNames()),
                       ::testing::ValuesIn(compress::allSchemes())),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               compress::schemeTestName(std::get<1>(info.param));
    });

TEST(TimingHookSeamFaults, BudgetOverrunIsCatchableThroughInlinedHook)
{
    Program program = workloads::buildBenchmark("li");
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    compress::CompressedImage image =
        compress::compressProgram(program, config);
    ExecResult reference = runProgram(program);

    FetchTimer compressedTimer(seamModel());
    CompressedCpu ccpu(image);
    ccpu.setFetchHook(compressedTimer.hook());
    try {
        ccpu.run(1000);
        FAIL() << "budget overrun went unnoticed";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(),
                     "fatal: compressed program exceeded 1000 steps");
    }
    EXPECT_EQ(ccpu.instCount(), 1000u);
    // The budget guard restored the unbudgeted default: stepping on
    // past the old limit runs to the halt.
    while (ccpu.step()) {
    }
    EXPECT_TRUE(ccpu.machine().halted());

    FetchTimer nativeTimer(seamModel());
    Cpu cpu(program);
    cpu.setFetchHook(nativeTimer.hook());
    EXPECT_THROW(cpu.run(1000), std::runtime_error);
    EXPECT_EQ(cpu.instCount(), 1000u);
    EXPECT_EQ(cpu.run(), reference);
    EXPECT_EQ(nativeTimer.report().instructions, reference.instCount);
}

/** lis/ori/mtlr load a misaligned native text address into LR, then
 *  blr consumes it. */
Program
badLrProgram()
{
    Program p;
    for (const isa::Inst &inst :
         {isa::lis(4, 1), isa::ori(4, 4, 6), isa::mtlr(4), isa::blr(),
          isa::li(0, 0), isa::sc()})
        p.text.push_back(isa::encode(inst));
    p.entryIndex = 0;
    p.finalize();
    return p;
}

/** Run @p cpu to its machine check; returns (fault, address, text). */
template <typename AnyCpu>
std::tuple<MachineFault, uint32_t, std::string>
machineCheckOf(AnyCpu &cpu)
{
    try {
        cpu.run();
    } catch (const MachineCheckError &error) {
        return {error.fault(), error.addr(), error.what()};
    }
    ADD_FAILURE() << "corrupt LR went unnoticed";
    return {};
}

TEST(TimingHookSeamFaults, CorruptLrRaisesTheSameMachineCheck)
{
    Program program = badLrProgram();
    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    compress::CompressedImage image =
        compress::compressProgram(program, config);

    FetchTimer timer(seamModel());
    Cpu plain(program), hooked(program);
    hooked.setFetchHook(timer.hook());
    auto native = machineCheckOf(plain);
    EXPECT_EQ(std::get<0>(native), MachineFault::MisalignedPc);
    EXPECT_EQ(machineCheckOf(hooked), native);

    FetchTimer compressedTimer(seamModel());
    CompressedCpu cplain(image), chooked(image);
    chooked.setFetchHook(compressedTimer.hook());
    auto compressed = machineCheckOf(cplain);
    EXPECT_EQ(std::get<0>(compressed), MachineFault::FetchOutOfText);
    EXPECT_EQ(std::get<1>(compressed), 0x00010006u);
    EXPECT_EQ(machineCheckOf(chooked), compressed);
    // The blr retired before its target check faulted, on both paths.
    EXPECT_EQ(chooked.instCount(), 4u);
    EXPECT_EQ(cplain.instCount(), 4u);
}

} // namespace
