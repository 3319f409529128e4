/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload toolchain|farm|execute --seed N
 *             --seconds N --trace 0|1 [--trace-file PATH]
 *             [--commit ID]
 *
 * One process, one client, closed loop. The workload is set up
 * kSetups times (setup_s is the median), then run in whole rounds --
 * every tuple once per round, in an order shuffled by the seed -- until
 * another round would overrun --seconds (at least one round). Every op
 * is checked against its reference; a failed check fails the op, and
 * any failed op makes the run exit 3.
 *
 * --trace 0 measures the end-to-end metrics with no spans recorded.
 * Timings are taken per tuple: each tuple's median op latency filters
 * the interference bursts of a shared host, op_ms.p50 is their
 * geometric mean, and ops_per_s / insts_per_s are the rates of one
 * round run at those medians.
 *
 * --trace 1 runs every op twice in a row, once traced and once not
 * (alternating which goes first), derives the per-layer metrics from
 * the traced ops, reports the median traced/untraced ratio of the pairs
 * as trace.overhead_pct, checks that every traced op's layers add up to
 * its wall time, and writes the spans as Chrome trace-event JSON to
 * --trace-file.
 *
 * The last stdout line is the result object {"correct", "attempted",
 * "failed", "metrics"}; the line before it records the run's identity
 * (seed, nproc, build type, compiler, commit) and the figures that are
 * not metrics (op_ms.p90 where the sample supports it, fail_ratio,
 * cycles_ratio.geomean). Exit codes: 0 ok, 1 bad command line, 2 set-up
 * failed, 3 an op failed a check.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/json.hh"
#include "support/thread_pool.hh"

#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;
using codecomp::JsonWriter;

namespace {

/** Set-ups per run; setup_s reports their median. */
constexpr int kSetups = 3;

/**
 * Largest share of a traced op's wall time its layer spans may leave
 * unattributed. The gap is harness glue between spans (moving results
 * into locals, the span bookkeeping itself), measured at under 0.2% of
 * every op on a 4-core x86-64 host; 2% flags a missing span, not noise.
 */
constexpr double kLayerSumTolerance = 0.02;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"op_ms.p50", "ms"},        {"insts_per_s", "insts/s"},
    {"peak_rss_mb", "MiB"},     {"ratio.geomean", "ratio"},
};

const MetricSpec kPerLayer[] = {
    {"workloads.source_ms", "ms"},
    {"codegen.lex_ms", "ms"},
    {"codegen.tokens_per_s", "1/s"},
    {"codegen.parse_ms", "ms"},
    {"codegen.codegen_ms", "ms"},
    {"codegen.emitted_insts_per_s", "insts/s"},
    {"link.link_ms", "ms"},
    {"objfile.program_roundtrip_ms", "ms"},
    {"objfile.image_save_ms", "ms"},
    {"objfile.image_load_ms", "ms"},
    {"objfile.image_mb_per_s", "MiB/s"},
    {"compress.enumerate_ms", "ms"},
    {"compress.candidates", "count"},
    {"compress.candidates_per_s", "1/s"},
    {"compress.enumerate_mb", "MiB"},
    {"compress.select_ms", "ms"},
    {"compress.select_rounds", "count"},
    {"compress.entries", "count"},
    {"compress.rankassign_ms", "ms"},
    {"compress.layout_ms", "ms"},
    {"compress.branchpatch_ms", "ms"},
    {"compress.emit_ms", "ms"},
    {"compress.far_branch_expansions", "count"},
    {"cache.enum_hit_ratio", "ratio"},
    {"cache.select_hit_ratio", "ratio"},
    {"cache.duplicate_computations", "count"},
    {"farm.build_ms", "ms"},
    {"farm.queue_ms", "ms"},
    {"farm.job_ms.p50", "ms"},
    {"farm.pool_utilization", "ratio"},
    {"farm.failed_jobs", "count"},
    {"decompress.scan_ms", "ms"},
    {"decompress.items_per_s", "1/s"},
    {"decompress.native_insts_per_s", "insts/s"},
    {"decompress.compressed_insts_per_s", "insts/s"},
    {"decompress.codeword_fetch_share", "ratio"},
    {"decompress.expanded_per_codeword", "insts"},
    {"timing.hook_ms", "ms"},
    {"timing.icache_miss_rate.native", "ratio"},
    {"timing.icache_miss_rate.compressed", "ratio"},
    {"timing.expansion_stall_share", "ratio"},
    {"timing.cycles_ratio.geomean", "ratio"},
    {"verify.lockstep_ms", "ms"},
    {"verify.ns_per_inst", "ns"},
    {"verify.overhead_x", "x"},
    {"verify.full_state_checks", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    uint64_t seconds = 0;
    bool trace = false;
    std::string traceFile;
    std::string commit = "unknown";
};

int
usage(const char *problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload toolchain|farm|execute"
                 " --seed N --seconds 1..3600 --trace 0|1"
                 " [--trace-file PATH] [--commit ID]\n",
                 problem);
    return 1;
}

/** Parse argv into @p args; returns an error message or "". */
std::string
parseArgs(int argc, char **argv, Args &args)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return "missing value for '" + flag + "'";
        std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            std::optional<uint64_t> seed =
                parseUnsigned(value, 0, UINT64_MAX);
            if (!seed)
                return "--seed wants a decimal integer, got '" + value + "'";
            args.seed = *seed;
            haveSeed = true;
        } else if (flag == "--seconds") {
            std::optional<uint64_t> seconds = parseUnsigned(value, 1, 3600);
            if (!seconds)
                return "--seconds wants 1..3600, got '" + value + "'";
            args.seconds = *seconds;
            haveSeconds = true;
        } else if (flag == "--trace") {
            std::optional<uint64_t> trace = parseUnsigned(value, 0, 1);
            if (!trace)
                return "--trace wants 0 or 1, got '" + value + "'";
            args.trace = *trace == 1;
            haveTrace = true;
        } else if (flag == "--trace-file") {
            args.traceFile = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            return "unknown option '" + flag + "'";
        }
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        return "--workload must be one of toolchain, farm, execute (got '" +
               args.workload + "')";
    if (!haveSeed || !haveSeconds || !haveTrace)
        return "--seed, --seconds and --trace are required";
    return "";
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const char *
compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Pins the calling thread to one allowed CPU after another; restores
 *  the original CPU set when done. Inactive when constructed with
 *  false or when only one CPU is allowed. */
class CpuRotation
{
  public:
    explicit CpuRotation(bool active)
    {
        CPU_ZERO(&original_);
        if (!active || ::sched_getaffinity(0, sizeof original_, &original_))
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        if (cpus_.size() < 2)
            cpus_.clear();
    }

    ~CpuRotation() { restore(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the @p slot-th allowed CPU (modulo their number). */
    void
    pin(uint64_t slot)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[slot % cpus_.size()], &one);
        ::sched_setaffinity(0, sizeof one, &one);
    }

    void
    restore()
    {
        if (!cpus_.empty())
            ::sched_setaffinity(0, sizeof original_, &original_);
        cpus_.clear();
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

/** Op latencies of one kind (traced or not), in run order and by
 *  tuple, with the work each tuple's op does. */
struct Samples
{
    explicit Samples(size_t tuples) : byTuple(tuples), work(tuples, 0.0) {}

    std::vector<double> opMs;
    std::vector<std::vector<double>> byTuple;
    std::vector<double> work;
};

/** Each visited tuple's median op latency, ms. */
std::vector<double>
tupleMedians(const Samples &samples)
{
    std::vector<double> medians;
    for (const std::vector<double> &visits : samples.byTuple)
        if (!visits.empty())
            medians.push_back(median(visits));
    return medians;
}

void
printMetrics(JsonWriter &json, const char *workload,
             const std::vector<std::pair<MetricSpec, double>> &metrics)
{
    json.key("metrics");
    json.beginObject();
    for (const auto &[spec, value] : metrics) {
        std::printf("perfbench %s: %-36s %.6g %s\n", workload, spec.name,
                    value, spec.unit);
        json.key(spec.name);
        json.beginObject();
        json.member("value", value);
        json.member("unit", spec.unit);
        json.endObject();
    }
    json.endObject();
}

int
run(const Args &args)
{
    unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    codecomp::setGlobalJobs(nproc);
    std::unique_ptr<Workload> workload = makeWorkload(args.workload, nproc);
    const size_t tuples = workload->tupleCount();

    std::vector<double> setupTimes;
    try {
        for (int i = 0; i < kSetups; ++i) {
            Clock::time_point start = Clock::now();
            workload->setUp();
            setupTimes.push_back(secondsSince(start));
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench %s: set-up failed: %s\n",
                     args.workload.c_str(), error.what());
        return 2;
    }

    Tracer tracer;
    Samples untraced(tuples), traced(tuples);
    uint64_t attempted = 0, failed = 0;
    std::string firstError;
    uint32_t opId = 0;
    auto runOp = [&](size_t tuple, bool traceOp) {
        uint32_t op = opId++;
        Tracer *spans = traceOp ? &tracer : nullptr;
        OpOutcome outcome;
        Clock::time_point start = Clock::now();
        {
            ScopedSpan root(spans, ("op." + args.workload).c_str(), -1, op);
            try {
                outcome = workload->run(tuple, op, spans, root.index());
            } catch (const std::exception &error) {
                outcome.error = error.what();
            }
        }
        double opSeconds = secondsSince(start);
        if (traceOp && outcome.error.empty()) {
            try {
                outcome.error = workload->probe(tuple, op, tracer);
            } catch (const std::exception &error) {
                outcome.error = error.what();
            }
        }
        ++attempted;
        if (!outcome.error.empty()) {
            ++failed;
            if (firstError.empty())
                firstError = workload->tupleLabel(tuple) + ": " +
                             outcome.error;
        }
        Samples &samples = traceOp ? traced : untraced;
        samples.opMs.push_back(opSeconds * 1000.0);
        samples.byTuple[tuple].push_back(opSeconds * 1000.0);
        samples.work[tuple] = outcome.work;
    };

    // Traced runs visit each tuple twice in a row, once with spans and
    // once without, alternating which goes first, so both halves see
    // the same tuples under the same warm-up.
    //
    // A single-threaded op runs wherever the scheduler put the thread,
    // and on a shared host the CPUs differ in speed by up to a third, so
    // such ops rotate over the allowed CPUs: tuple t runs on CPU
    // (t + round) mod n, and every tuple meets every CPU equally often.
    CpuRotation rotation(workload->singleThreaded());
    uint64_t rounds = 0;
    Clock::time_point phaseStart = Clock::now();
    for (;;) {
        Clock::time_point roundStart = Clock::now();
        for (size_t tuple : roundOrder(tuples, args.seed, rounds)) {
            rotation.pin(tuple + rounds);
            if (!args.trace) {
                runOp(tuple, false);
                continue;
            }
            bool tracedFirst = opId % 4 == 0;
            runOp(tuple, tracedFirst);
            runOp(tuple, !tracedFirst);
        }
        ++rounds;
        double roundSeconds = secondsSince(roundStart);
        if (secondsSince(phaseStart) + roundSeconds >
            static_cast<double>(args.seconds))
            break;
    }
    rotation.restore();

    // Deterministic per-image figures, one value per tuple.
    std::vector<double> ratios, cycleRatios;
    for (size_t tuple = 0; tuple < tuples; ++tuple) {
        ratios.push_back(workload->ratio(tuple));
        if (workload->cyclesRatio(tuple) > 0.0)
            cycleRatios.push_back(workload->cyclesRatio(tuple));
    }
    std::optional<double> ratioGeomean = geomean(ratios);
    std::optional<double> cyclesGeomean = geomean(cycleRatios);
    if (!ratioGeomean && firstError.empty())
        firstError = "an image has no positive compression ratio";

    std::vector<std::pair<MetricSpec, double>> metrics;
    if (!args.trace) {
        // Per-tuple medians filter the interference bursts of a shared
        // host; a round at those medians gives the rates.
        std::vector<double> medians = tupleMedians(untraced);
        double roundSeconds =
            std::accumulate(medians.begin(), medians.end(), 0.0) / 1000.0;
        double roundWork = std::accumulate(untraced.work.begin(),
                                           untraced.work.end(), 0.0);
        double values[] = {
            median(setupTimes),
            static_cast<double>(medians.size()) / roundSeconds,
            geomean(medians).value_or(0.0),
            roundWork / roundSeconds,
            peakRssMb(),
            ratioGeomean.value_or(0.0),
        };
        for (size_t i = 0; i < std::size(kEndToEnd); ++i)
            metrics.push_back({kEndToEnd[i], values[i]});
    } else {
        LayerValues layers;
        for (const MetricSpec &spec : kPerLayer)
            layers[spec.name] = 0.0;
        workload->layerValues(totalMillisByName(tracer.spans()),
                              static_cast<double>(traced.opMs.size()),
                              layers);
        layers["timing.cycles_ratio.geomean"] = cyclesGeomean.value_or(0.0);
        layers["trace.overhead_pct"] =
            (pairedRatio(traced.opMs, untraced.opMs) - 1.0) * 100.0;
        double worst = 0.0;
        for (double share : unattributedShares(tracer.spans()))
            worst = std::max(worst, share);
        layers["trace.unattributed_pct"] = worst * 100.0;
        if (worst > kLayerSumTolerance) {
            ++failed;
            if (firstError.empty())
                firstError = "layers do not add up: an op left " +
                             std::to_string(worst * 100.0) +
                             "% of its wall time outside every span";
        }
        for (const MetricSpec &spec : kPerLayer)
            metrics.push_back({spec, layers.at(spec.name)});

        if (!args.traceFile.empty()) {
            std::ofstream out(args.traceFile, std::ios::binary);
            out << tracer.chromeJson();
            if (!out)
                std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                             args.traceFile.c_str());
        }
    }

    bool correct = failed == 0 && ratioGeomean.has_value();
    if (!firstError.empty())
        std::fprintf(stderr, "perfbench %s: FAILED %s\n",
                     args.workload.c_str(), firstError.c_str());

    JsonWriter info;
    info.beginObject();
    info.key("perfbench");
    info.beginObject();
    info.member("workload", args.workload);
    info.member("seed", args.seed);
    info.member("seconds", args.seconds);
    info.member("trace", args.trace);
    info.member("nproc", nproc);
    info.member("pool_width", codecomp::globalJobs());
    info.member("build_type", PERFBENCH_BUILD_TYPE);
    info.member("compiler", compilerId());
    info.member("commit", args.commit);
    info.member("tuples", static_cast<uint64_t>(tuples));
    info.member("rounds", rounds);
    info.member("op_samples", static_cast<uint64_t>(untraced.opMs.size()));
    info.key("op_ms.p90");
    if (std::optional<double> p90 = tailPercentile(untraced.opMs, 0.9))
        info.value(*p90);
    else
        info.raw("null"); // fewer than ten samples beyond p90
    info.member("fail_ratio", static_cast<double>(failed) /
                                  static_cast<double>(attempted));
    info.key("cycles_ratio.geomean");
    if (cyclesGeomean)
        info.value(*cyclesGeomean);
    else
        info.raw("null"); // this workload runs no timing model
    info.member("setup_s.samples", static_cast<uint64_t>(setupTimes.size()));
    info.endObject();
    info.endObject();

    JsonWriter result;
    result.beginObject();
    result.member("correct", correct);
    result.member("attempted", attempted);
    result.member("failed", failed);
    printMetrics(result, args.workload.c_str(), metrics);
    result.endObject();
    std::printf("%s\n%s\n", info.str().c_str(), result.str().c_str());
    return correct ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string problem = parseArgs(argc, argv, args);
    if (!problem.empty())
        return usage(problem.c_str());
    return run(args);
}
