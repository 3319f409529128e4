/**
 * @file
 * ccfarm -- run a queue of compression jobs as one batched, cached,
 * fault-tolerant parallel farm run and aggregate the results.
 *
 *   ccfarm [--spec jobs.json] [--workloads a,b] [--schemes x,y]
 *          [--strategies s,t] [pool, retry, cache and output flags]
 *
 * Without --spec the queue is the starter corpus (all 8 workloads x
 * every registered scheme x {greedy, refit}), optionally narrowed by
 * the --workloads / --schemes / --strategies comma lists. With --spec
 * the queue comes from a job-spec JSON file (src/farm/jobspec.hh) and
 * the narrowing flags are rejected.
 *
 * --isolate N runs every job in a forked worker subprocess (this very
 * binary in its hidden --worker mode) on an N-wide pool: a crash,
 * hang, machine check, or OOM kill in one job becomes a classified
 * per-job failure instead of taking down the run. --job-timeout MS and
 * --retries N add deadlines and retry-with-backoff (--backoff MS) on
 * top.
 *
 * --cache-dir backs the pipeline cache with a crash-safe on-disk
 * store shared across runs and worker processes; a damaged store is
 * detected (checksums), quarantined, and silently recomputed --
 * results are never affected.
 *
 * --inject runs a seeded self-test campaign against the farm's own
 * fault tolerance: deliberately crash or hang a deterministic subset
 * of workers (or bit-flip the persistent cache between runs) and
 * verify every non-injected job's image is bit-identical to a clean
 * reference run while every injected fault is correctly attributed.
 * A violated expectation exits 2 (a finding), per the tool contract.
 *
 * --images writes each job's .cci image into the directory (job ids
 * with '/' becoming '-'); the images are bit-identical to what serial
 * ccompress produces for the same program and config, at any --jobs /
 * --isolate width, with retries, and with the cache off, on, or
 * persistent. --report writes the full aggregated JSON report;
 * --results writes just the deterministic results array (the
 * byte-identity surface the determinism tests compare); stdout always
 * carries a human summary.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "compress/encoding.hh"
#include "compress/strategy.hh"
#include "farm/farm.hh"
#include "farm/jobspec.hh"
#include "farm/worker.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
finding(const std::string &message)
{
    std::fprintf(stderr, "ccfarm: FINDING: %s\n", message.c_str());
    return tools::exitFinding;
}

/** "gcc/nibble/refit" -> "gcc-nibble-refit.cci". */
std::string
imageFileName(const std::string &id)
{
    std::string name = id;
    for (char &c : name)
        if (c == '/')
            c = '-';
    return name + ".cci";
}

void
writeText(const std::string &path, const std::string &text)
{
    writeFile(path, std::vector<uint8_t>(text.begin(), text.end()));
}

/** An --inject / --worker-inject kind; corrupt-cache is a campaign
 *  of the parent run only. */
farm::InjectKind
parseInjectKind(const std::string &flag, std::string_view kind,
                bool campaign)
{
    if (kind == "crash")
        return farm::InjectKind::Crash;
    if (kind == "hang")
        return farm::InjectKind::Hang;
    if (campaign && kind == "corrupt-cache")
        return farm::InjectKind::CorruptCache;
    throw tools::UsageError("unknown " + flag + " '" + std::string(kind) +
                            "' (expected crash, hang" +
                            (campaign ? ", or corrupt-cache)" : ")"));
}

/**
 * Hidden worker mode: execute exactly one job from a one-job spec
 * file and write the checksummed binary result (temp + atomic rename,
 * so a kill mid-write leaves no half-written file the parent could
 * mistake for a result). In-band job failures still exit 0 -- the
 * result file carries their FailureKind; only worker-level plumbing
 * failures (unreadable spec, unwritable result) exit nonzero.
 */
int
runWorker(int argc, char **argv)
{
    std::string specPath;
    std::string outPath;
    std::string cacheDir;
    bool keepImages = true;
    farm::InjectKind inject = farm::InjectKind::None;

    tools::Command command{
        "ccfarm", "", 0, 0,
        {tools::text("--worker", "SPEC", specPath),
         tools::text("--worker-out", "FILE", outPath),
         tools::text("--cache-dir", "D", cacheDir),
         tools::flag("--worker-no-images", keepImages, false),
         {"--worker-inject", "crash|hang", [&](const char *kind) {
              inject = parseInjectKind("--worker-inject", kind, false);
          }}}};
    command.parse(argc, argv);
    if (outPath.empty())
        command.fail("--worker requires --worker-out");

    std::vector<uint8_t> bytes = readFile(specPath);
    std::vector<farm::FarmJob> jobs =
        farm::parseJobSpec(std::string(bytes.begin(), bytes.end()));
    if (jobs.size() != 1)
        throw tools::UsageError(
            "worker spec must contain exactly one job, got " +
            std::to_string(jobs.size()));

    farm::WorkerResult result =
        farm::runWorkerJob(jobs[0], cacheDir, keepImages, inject);
    if (std::optional<LoadError> error = tryWriteFileAtomic(
            outPath, farm::serializeWorkerResult(result)))
        throw LoadFailure(*error);
    return tools::exitOk;
}

// ---- the --inject self-test campaign ----

/** A seed whose injected subset is mixed (some jobs injected, some
 *  not), so both campaign assertions have teeth. Deterministic: scans
 *  forward from @p seed. */
uint64_t
mixedInjectionSeed(farm::FaultPlan plan, size_t jobCount)
{
    for (int tries = 0; tries < 1000; ++tries, ++plan.seed) {
        size_t injected = 0;
        for (size_t i = 0; i < jobCount; ++i)
            injected += farm::shouldInject(plan, i, 0) ? 1 : 0;
        if (injected >= 1 && (jobCount == 1 || injected < jobCount))
            return plan.seed;
    }
    return plan.seed;
}

/**
 * Crash/hang campaign: a clean inline reference run, then an isolated
 * run with hard faults injected into a seeded subset (those jobs must
 * fail with the right kind; everything else must be bit-identical),
 * then an isolated run with the same faults made transient (first
 * attempt only) and a retry budget (every job must recover).
 */
int
runFaultCampaign(const std::vector<farm::FarmJob> &jobs,
                 farm::FarmOptions options, farm::InjectKind kind)
{
    farm::FailureKind expected = kind == farm::InjectKind::Crash
                                     ? farm::FailureKind::Crash
                                     : farm::FailureKind::Timeout;
    // A hung worker is only detected by its deadline.
    if (kind == farm::InjectKind::Hang && options.jobTimeoutMs == 0)
        options.jobTimeoutMs = 2000;

    farm::FarmOptions reference = options;
    reference.isolate = false;
    reference.inject = farm::FaultPlan{};
    reference.keepImages = true;
    farm::FarmReport ref = farm::runFarm(jobs, reference);
    if (ref.failures())
        return finding("reference run failed (" +
                       std::to_string(ref.failures()) + " of " +
                       std::to_string(jobs.size()) + " jobs)");

    farm::FaultPlan plan;
    plan.kind = kind;
    plan.seed = options.seed;
    plan.seed = mixedInjectionSeed(plan, jobs.size());
    size_t injectedCount = 0;
    for (size_t i = 0; i < jobs.size(); ++i)
        injectedCount += farm::shouldInject(plan, i, 0) ? 1 : 0;
    std::printf("inject %s: seed %llu faults %zu of %zu jobs\n",
                kind == farm::InjectKind::Crash ? "crash" : "hang",
                static_cast<unsigned long long>(plan.seed),
                injectedCount, jobs.size());

    // Phase 1: hard faults. Injected jobs must fail -- attributed to
    // the right kind, with every attempt burned -- and must not
    // disturb any other job.
    farm::FarmOptions hard = options;
    hard.isolate = true;
    hard.keepImages = true;
    hard.inject = plan;
    farm::FarmReport hardReport = farm::runFarm(jobs, hard);
    for (size_t i = 0; i < jobs.size(); ++i) {
        const farm::FarmJobResult &got = hardReport.results[i];
        const farm::FarmJobResult &want = ref.results[i];
        if (farm::shouldInject(plan, i, 0)) {
            if (got.ok())
                return finding("injected job '" + got.id +
                               "' unexpectedly succeeded");
            if (got.failureKind != expected)
                return finding(
                    "injected job '" + got.id + "' classified as " +
                    farm::failureKindName(got.failureKind) +
                    ", expected " + farm::failureKindName(expected));
            uint32_t wantAttempts =
                1 + (jobs[i].retries >= 0
                         ? static_cast<uint32_t>(jobs[i].retries)
                         : options.retries);
            if (got.attempts != wantAttempts)
                return finding("injected job '" + got.id + "' made " +
                               std::to_string(got.attempts) +
                               " attempts, expected " +
                               std::to_string(wantAttempts));
        } else {
            if (!got.ok())
                return finding("non-injected job '" + got.id +
                               "' failed: " + got.error);
            if (got.imageBytes != want.imageBytes ||
                got.imageFnv64 != want.imageFnv64)
                return finding("non-injected job '" + got.id +
                               "' image differs from the reference");
        }
    }
    if (hardReport.failuresOfKind(expected) != injectedCount)
        return finding("failure-kind tally mismatch");

    // Phase 2: the same faults, transient. A retry budget must
    // recover every job bit-identically.
    farm::FarmOptions soft = hard;
    soft.inject.firstAttemptOnly = true;
    soft.retries = std::max(options.retries, 1u);
    farm::FarmReport softReport = farm::runFarm(jobs, soft);
    for (size_t i = 0; i < jobs.size(); ++i) {
        const farm::FarmJobResult &got = softReport.results[i];
        if (!got.ok())
            return finding("transient-fault job '" + got.id +
                           "' did not recover: " + got.error);
        if (got.imageBytes != ref.results[i].imageBytes)
            return finding("recovered job '" + got.id +
                           "' image differs from the reference");
        bool injected = farm::shouldInject(plan, i, 0);
        if (injected && got.attempts < 2)
            return finding("transient-fault job '" + got.id +
                           "' recorded no retry");
        if (!injected && got.attempts != 1)
            return finding("clean job '" + got.id +
                           "' recorded a spurious retry");
    }
    std::printf("inject %s: ok (%zu faults attributed, %zu recovered, "
                "%zu jobs undisturbed)\n",
                kind == farm::InjectKind::Crash ? "crash" : "hang",
                injectedCount, injectedCount,
                jobs.size() - injectedCount);
    return tools::exitOk;
}

/**
 * Corrupt-cache campaign: a cold run populates the persistent store, a
 * seeded damage pass bit-flips / truncates / version-skews every entry
 * file, and a warm run must detect and quarantine the damage while
 * producing bit-identical results.
 */
int
runCorruptCacheCampaign(const std::vector<farm::FarmJob> &jobs,
                        farm::FarmOptions options)
{
    std::filesystem::path dir =
        options.cacheDir.empty()
            ? std::filesystem::temp_directory_path() /
                  ("ccfarm-inject-" + std::to_string(::getpid()))
            : std::filesystem::path(options.cacheDir);
    bool scratchStore = options.cacheDir.empty();
    std::filesystem::create_directories(dir);

    farm::FarmOptions runOptions = options;
    runOptions.isolate = false;
    runOptions.inject = farm::FaultPlan{};
    runOptions.keepImages = true;
    runOptions.cache = true;
    runOptions.cacheDir = dir.string();

    farm::FarmReport cold = farm::runFarm(jobs, runOptions);
    if (cold.failures())
        return finding("cold run failed");
    if (cold.cacheStats.persistStores == 0)
        return finding("cold run stored nothing in the persistent "
                       "cache");

    // Damage every entry file, cycling through the three corruption
    // classes so one campaign exercises every detector.
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".cce")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    if (files.empty())
        return finding("persistent store is empty after the cold run");
    Rng rng(options.seed);
    for (size_t i = 0; i < files.size(); ++i) {
        std::vector<uint8_t> bytes = readFile(files[i].string());
        switch (i % 3) {
          case 0: // flip one random bit somewhere in the file
            bytes[rng.below(bytes.size())] ^=
                static_cast<uint8_t>(1u << rng.below(8));
            break;
          case 1: // truncate mid-file
            bytes.resize(bytes.size() / 2);
            break;
          case 2: // version skew (inside the u32 after the magic)
            bytes[5] ^= 0xff;
            break;
        }
        writeFile(files[i].string(), bytes);
    }
    std::printf("inject corrupt-cache: damaged %zu entry files\n",
                files.size());

    farm::FarmReport warm = farm::runFarm(jobs, runOptions);
    if (warm.failures())
        return finding("warm run failed after cache damage");
    for (size_t i = 0; i < jobs.size(); ++i)
        if (warm.results[i].imageBytes != cold.results[i].imageBytes)
            return finding("job '" + warm.results[i].id +
                           "' image changed after cache damage");
    if (warm.resultsJson() != cold.resultsJson())
        return finding("deterministic report half changed after cache "
                       "damage");
    if (warm.cacheStats.persistCorrupt == 0)
        return finding("no damaged entries were detected");

    size_t quarantined = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".quarantined")
            ++quarantined;
    if (quarantined == 0)
        return finding("no damaged entries were quarantined");
    std::printf("inject corrupt-cache: ok (%llu detected, %zu "
                "quarantined, results bit-identical)\n",
                static_cast<unsigned long long>(
                    warm.cacheStats.persistCorrupt),
                quarantined);
    if (scratchStore) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    return tools::exitOk;
}

int
run(int argc, char **argv)
{
    // The farm starts its isolated workers as "ccfarm --worker SPEC
    // ...", with the hidden worker-mode table below.
    if (argc > 1 && std::string_view(argv[1]) == "--worker")
        return runWorker(argc, argv);

    std::string specPath;
    std::string reportPath;
    std::string resultsPath;
    std::string imagesDir;
    std::vector<std::string> workloadFilter;
    std::vector<std::string> schemeFilter;
    std::vector<std::string> strategyFilter;
    bool list = false;
    farm::InjectKind campaign = farm::InjectKind::None;
    farm::FarmOptions options;

    tools::Command command{
        "ccfarm", "", 0, 0,
        tools::join(
            {{tools::text("--spec", "jobs.json", specPath),
              tools::list("--workloads", "a,b,...", workloadFilter),
              tools::list("--schemes", compress::schemeCliNames(","),
                          schemeFilter),
              tools::list("--strategies", compress::strategyCliNames(","),
                          strategyFilter),
              tools::jobsOption(), tools::isolateOption(options.isolate),
              tools::number("--job-timeout", options.jobTimeoutMs),
              tools::number("--retries", options.retries, 0, 100),
              tools::number("--backoff", options.backoffBaseMs),
              tools::number("--seed", options.seed)},
             tools::cacheOptions(options.cache, options.cacheDir),
             {tools::number("--cache-cap", options.cacheMaxEntries, 1),
              tools::text("--report", "out.json", reportPath),
              tools::text("--results", "out.json", resultsPath),
              tools::text("--images", "outdir/", imagesDir),
              {"--inject", "crash|hang|corrupt-cache",
               [&](const char *kind) {
                   campaign = parseInjectKind("--inject", kind, true);
               }},
              tools::flag("--list", list)}})};
    command.parse(argc, argv);

    // Preflight every output destination before any job runs: an
    // unwritable report path must fail in milliseconds, not after the
    // whole corpus has been compressed.
    for (const std::string &path : {reportPath, resultsPath}) {
        if (path.empty())
            continue;
        std::filesystem::path parent =
            std::filesystem::path(path).parent_path();
        if (!parent.empty() && !std::filesystem::is_directory(parent))
            throw tools::UsageError("output directory '" +
                                    parent.string() + "' does not exist");
    }
    if (!imagesDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(imagesDir, ec);
        if (ec || !std::filesystem::is_directory(imagesDir))
            throw tools::UsageError("cannot create image directory '" +
                                    imagesDir + "'" +
                                    (ec ? ": " + ec.message() : ""));
    }

    // Assemble the queue: a spec file, or the (filtered) starter corpus.
    std::vector<farm::FarmJob> jobs;
    if (!specPath.empty()) {
        if (!workloadFilter.empty() || !schemeFilter.empty() ||
            !strategyFilter.empty())
            throw tools::UsageError(
                "--spec and the --workloads/--schemes/--strategies "
                "filters are mutually exclusive");
        std::vector<uint8_t> bytes = readFile(specPath);
        jobs = farm::parseJobSpec(
            std::string(bytes.begin(), bytes.end()));
    } else {
        // Validate the filters up front so a typo is a usage error,
        // not an empty run.
        for (const std::string &name : schemeFilter)
            tools::parseScheme(name);
        // The shared parser's catchable fatal carries the registry's
        // strategy list; runTool maps it to the same usage exit.
        for (const std::string &name : strategyFilter)
            compress::parseStrategyNameOrFatal(name);
        const std::vector<std::string> &known =
            workloads::benchmarkNames();
        for (const std::string &name : workloadFilter)
            if (std::find(known.begin(), known.end(), name) ==
                known.end())
                throw tools::UsageError("unknown workload '" + name + "'");
        auto keep = [](const std::vector<std::string> &filter,
                       const std::string &value) {
            return filter.empty() ||
                   std::find(filter.begin(), filter.end(), value) !=
                       filter.end();
        };
        for (farm::FarmJob &job : farm::starterCorpus()) {
            if (keep(workloadFilter, job.workload) &&
                keep(schemeFilter,
                     compress::schemeCliName(job.config.scheme)) &&
                keep(strategyFilter,
                     compress::strategyName(job.config.strategy)))
                jobs.push_back(std::move(job));
        }
    }
    if (jobs.empty())
        throw tools::UsageError("the job queue is empty");

    if (list) {
        for (const farm::FarmJob &job : jobs)
            std::printf("%s\n", job.id.c_str());
        return tools::exitOk;
    }

    if (campaign == farm::InjectKind::Crash ||
        campaign == farm::InjectKind::Hang)
        return runFaultCampaign(jobs, options, campaign);
    if (campaign == farm::InjectKind::CorruptCache)
        return runCorruptCacheCampaign(jobs, options);

    options.keepImages = !imagesDir.empty();
    farm::FarmReport report = farm::runFarm(jobs, options);

    if (!imagesDir.empty()) {
        for (const farm::FarmJobResult &result : report.results)
            if (result.ok())
                writeFile((std::filesystem::path(imagesDir) /
                           imageFileName(result.id))
                              .string(),
                          result.imageBytes);
    }
    if (!reportPath.empty())
        writeText(reportPath, report.toJson() + "\n");
    if (!resultsPath.empty())
        writeText(resultsPath, report.resultsJson() + "\n");

    for (const farm::FarmJobResult &result : report.results) {
        if (!result.ok()) {
            std::fprintf(stderr,
                         "ccfarm: %s: [%s, %u attempt%s] %s\n",
                         result.id.c_str(),
                         farm::failureKindName(result.failureKind),
                         result.attempts,
                         result.attempts == 1 ? "" : "s",
                         result.error.c_str());
            continue;
        }
        std::printf("%-28s %8llu bytes  ratio %5.1f%%  %7.1f ms\n",
                    result.id.c_str(),
                    static_cast<unsigned long long>(result.totalBytes),
                    result.ratio * 100, result.millis);
    }
    const compress::PipelineCache::Stats &cs = report.cacheStats;
    std::printf("%zu jobs (%zu failed) on %u %s in %.1f ms "
                "(%.1f jobs/s)\n",
                report.results.size(), report.failures(),
                report.poolJobs,
                report.isolated ? "isolated workers" : "workers",
                report.wallMillis,
                report.compressMillis > 0.0
                    ? 1000.0 *
                          static_cast<double>(report.results.size()) /
                          report.compressMillis
                    : 0.0);
    std::printf("cache: %s, enumerate %llu hit / %llu miss, select "
                "%llu hit / %llu miss",
                report.cacheEnabled ? "on" : "off",
                static_cast<unsigned long long>(cs.enumHits),
                static_cast<unsigned long long>(cs.enumMisses),
                static_cast<unsigned long long>(cs.selectHits),
                static_cast<unsigned long long>(cs.selectMisses));
    if (cs.evictions)
        std::printf(", %llu evicted",
                    static_cast<unsigned long long>(cs.evictions));
    if (!options.cacheDir.empty())
        std::printf("; disk %llu hit / %llu store / %llu corrupt",
                    static_cast<unsigned long long>(cs.persistHits),
                    static_cast<unsigned long long>(cs.persistStores),
                    static_cast<unsigned long long>(cs.persistCorrupt));
    std::printf("\n");
    return report.failures() == 0 ? tools::exitOk
                                  : tools::exitUserError;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccfarm", [&] { return run(argc, argv); });
}
