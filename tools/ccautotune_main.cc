/**
 * @file
 * ccautotune -- search scheme x strategy x dictionary-share x layout x
 * cache-geometry configurations for the best cycle count within on-chip
 * byte budgets (src/autotune).
 *
 *   ccautotune --workload <name>[,<name>...]|all --budget N [--budget N]
 *              [search-space, model, farm and output flags]
 *
 * The compression sweep runs as farm jobs (shared pipeline cache;
 * --isolate forks ccfarm workers -- the default worker is the ccfarm
 * binary next to this executable). The human report prints the winner
 * table per workload; --frontier also prints every Pareto point.
 * --json writes AutotuneResult::toJson(), which is byte-identical for
 * any --jobs value and any cache setting. Exit codes follow
 * tool_common.hh: bad flags, unknown names, and invalid models exit 1.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "autotune/autotune.hh"
#include "compress/codec.hh"
#include "support/serialize.hh"
#include "support/subprocess.hh"
#include "support/thread_pool.hh"
#include "tool_common.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

void
printWorkload(const autotune::WorkloadResult &wr, bool frontier)
{
    std::printf("%s:\n", wr.workload.c_str());
    if (frontier) {
        std::printf("  frontier (%zu of %zu points):\n",
                    wr.frontier.size(), wr.points.size());
        for (uint32_t index : wr.frontier) {
            const autotune::CandidatePoint &point = wr.points[index];
            std::printf("    %8llu bytes %12llu cycles  %s\n",
                        static_cast<unsigned long long>(point.onChipBytes),
                        static_cast<unsigned long long>(point.cycles()),
                        point.id.c_str());
        }
    }
    for (const autotune::BudgetWinner &winner : wr.winners) {
        if (winner.point < 0) {
            std::printf("  budget %8llu: (nothing fits)\n",
                        static_cast<unsigned long long>(winner.budget));
            continue;
        }
        const autotune::CandidatePoint &point =
            wr.points[static_cast<size_t>(winner.point)];
        std::printf("  budget %8llu: %s  (%llu bytes, %llu cycles)\n",
                    static_cast<unsigned long long>(winner.budget),
                    point.id.c_str(),
                    static_cast<unsigned long long>(point.onChipBytes),
                    static_cast<unsigned long long>(point.cycles()));
    }
}

int
run(int argc, char **argv)
{
    std::vector<std::string> workloadNames;
    autotune::BudgetSpec spec;
    autotune::AutotuneOptions options;
    std::string jsonPath;
    bool frontier = false;

    tools::Command command{
        "ccautotune", "", 0, 0,
        tools::join(
            {{{"--workload", "<name>[,...]|all",
               [&](const char *list) {
                   for (const std::string &name : tools::splitList(list)) {
                       if (name == "all") {
                           workloadNames = workloads::benchmarkNames();
                           break;
                       }
                       workloadNames.push_back(name);
                   }
               }},
              tools::number("--budget", spec.budgets, 1),
              {"--schemes", compress::schemeCliNames(","),
               [&](const char *list) {
                   for (const std::string &name : tools::splitList(list))
                       spec.schemes.push_back(tools::parseScheme(name));
               }},
              {"--strategies", compress::strategyCliNames(","),
               [&](const char *list) {
                   for (const std::string &name : tools::splitList(list))
                       spec.strategies.push_back(
                           compress::parseStrategyNameOrFatal(name));
               }},
              {"--dict-caps", "N,N,...",
               [&](const char *list) {
                   for (const std::string &cap : tools::splitList(list))
                       spec.dictCaps.push_back(tools::toNumber<uint32_t>(
                           "--dict-caps", cap, 1, UINT32_MAX));
               }},
              {"--cache-geoms", "CAP:LINE:WAYS,...",
               [&](const char *list) {
                   for (const std::string &item : tools::splitList(list))
                       spec.cacheGeometries.push_back(
                           tools::parseCacheSpec("--cache-geoms", item));
               }},
              tools::flag("--no-hotcold", spec.tryHotCold, false)},
             tools::timingOptions(spec.model),
             {tools::maxStepsOption(spec.maxSteps), tools::jobsOption(),
              tools::isolateOption(options.isolate),
              tools::text("--worker-binary", "<ccfarm>",
                          options.workerBinary)},
             tools::cacheOptions(options.cache, options.cacheDir),
             {tools::text("--json", "FILE", jsonPath),
              tools::flag("--frontier", frontier)}})};
    command.parse(argc, argv);
    if (workloadNames.empty() || spec.budgets.empty())
        command.fail("--workload and --budget are required");
    // The isolation worker is ccfarm in its hidden --worker mode;
    // default to the ccfarm built next to this executable.
    if (options.isolate && options.workerBinary.empty()) {
        std::filesystem::path self = selfExecutablePath();
        options.workerBinary = (self.parent_path() / "ccfarm").string();
        if (!std::filesystem::exists(options.workerBinary))
            throw tools::UsageError(
                "--isolate needs the ccfarm worker binary (not found at " +
                options.workerBinary + "; pass --worker-binary)");
    }
    // Reject a bad search spec up front with the reason, mirroring
    // cctime's model validation.
    if (spec.cacheGeometries.empty()) {
        for (uint32_t capacity : {1024u, 2048u, 4096u, 8192u})
            spec.cacheGeometries.push_back(
                {capacity, 32, capacity >= 4096 ? 2u : 1u});
    }
    std::string spec_error = autotune::budgetSpecError(spec);
    if (!spec_error.empty())
        throw tools::UsageError(spec_error);

    autotune::AutotuneResult result =
        autotune::autotune(workloadNames, spec, options);

    autotune::SearchSpace space(spec);
    std::printf("search: %llu candidate configs (%llu pruned), "
                "%zu geometries (%llu pruned), %zu workloads\n",
                static_cast<unsigned long long>(result.enumerated),
                static_cast<unsigned long long>(result.pruned),
                space.geometries().size(),
                static_cast<unsigned long long>(result.prunedGeometries),
                workloadNames.size());
    if (result.failedJobs)
        std::printf("warning: %llu compression jobs failed and were "
                    "skipped\n",
                    static_cast<unsigned long long>(result.failedJobs));
    for (const autotune::WorkloadResult &wr : result.workloads)
        printWorkload(wr, frontier);
    std::printf("pipeline cache: %llu enum hits, %llu select hits; "
                "%.0f ms\n",
                static_cast<unsigned long long>(
                    result.cacheStats.enumHits),
                static_cast<unsigned long long>(
                    result.cacheStats.selectHits),
                result.wallMillis);

    if (!jsonPath.empty()) {
        std::string doc = result.toJson() + "\n";
        writeFile(jsonPath,
                  std::vector<uint8_t>(doc.begin(), doc.end()));
    }
    return tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccautotune", [&] { return run(argc, argv); });
}
