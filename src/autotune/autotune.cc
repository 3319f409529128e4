#include "autotune/autotune.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "compress/codec.hh"
#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "farm/farm.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

namespace codecomp::autotune {

namespace {

using Clock = std::chrono::steady_clock;

std::string
geometryId(const cache::CacheConfig &geometry)
{
    return std::to_string(geometry.capacityBytes) + ":" +
           std::to_string(geometry.lineBytes) + ":" +
           std::to_string(geometry.ways);
}

/** Timers for one execution run: one per kept geometry, all fed from
 *  a single fetch hook so every geometry prices the same stream. */
std::vector<timing::FetchTimer>
makeTimers(const BudgetSpec &spec,
           const std::vector<cache::CacheConfig> &geometries)
{
    std::vector<timing::FetchTimer> timers;
    timers.reserve(geometries.size());
    for (const cache::CacheConfig &geometry : geometries) {
        timing::TimingConfig model = spec.model;
        model.icache = geometry;
        timers.emplace_back(model);
    }
    return timers;
}

/** Every timer of a run, observing one fetch stream. */
struct TimerFan
{
    std::vector<timing::FetchTimer> &timers;

    void
    onFetch(const FetchEvent &event)
    {
        for (timing::FetchTimer &timer : timers)
            timer.onFetch(event);
    }
};

template <typename AnyCpu>
void
runTimed(AnyCpu &cpu, std::vector<timing::FetchTimer> &timers,
         uint64_t max_steps)
{
    TimerFan fan{timers};
    cpu.setFetchHook(FetchHook::inlined(fan));
    cpu.run(max_steps);
}

/** Dominated-point elimination over (onChipBytes, cycles): ascending
 *  bytes, strictly descending cycles survive. Ties (equal bytes and
 *  cycles) resolve by id so the frontier is deterministic. */
void
computeFrontier(WorkloadResult &wr)
{
    std::vector<uint32_t> order(wr.points.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&wr](uint32_t a, uint32_t b) {
        const CandidatePoint &pa = wr.points[a];
        const CandidatePoint &pb = wr.points[b];
        if (pa.onChipBytes != pb.onChipBytes)
            return pa.onChipBytes < pb.onChipBytes;
        if (pa.cycles() != pb.cycles())
            return pa.cycles() < pb.cycles();
        return pa.id < pb.id;
    });
    uint64_t best = UINT64_MAX;
    for (uint32_t index : order) {
        if (wr.points[index].cycles() < best) {
            wr.frontier.push_back(index);
            best = wr.points[index].cycles();
        }
    }
}

/** Winner at each budget: the last frontier point that fits (frontier
 *  cycles strictly decrease as bytes grow, so "last that fits" is
 *  "fewest cycles within budget"). */
void
computeWinners(WorkloadResult &wr, const std::vector<uint64_t> &budgets)
{
    for (uint64_t budget : budgets) {
        BudgetWinner winner;
        winner.budget = budget;
        for (uint32_t index : wr.frontier) {
            if (wr.points[index].onChipBytes > budget)
                break;
            winner.point = static_cast<int32_t>(index);
        }
        wr.winners.push_back(winner);
    }
}

} // namespace

std::string
budgetSpecError(const BudgetSpec &spec)
{
    if (spec.budgets.empty())
        return "need at least one budget";
    for (uint64_t budget : spec.budgets)
        if (budget == 0)
            return "budgets must be positive";
    if (spec.cacheGeometries.empty())
        return "need at least one cache geometry";
    for (const cache::CacheConfig &geometry : spec.cacheGeometries) {
        timing::TimingConfig model = spec.model;
        model.icache = geometry;
        std::string error = timing::timingConfigError(model);
        if (!error.empty())
            return "geometry " + geometryId(geometry) + ": " + error;
    }
    for (uint32_t cap : spec.dictCaps)
        if (cap == 0)
            return "dictionary caps must be >= 1";
    if (spec.maxSteps == 0)
        return "max steps must be >= 1";
    return "";
}

SearchSpace::SearchSpace(const BudgetSpec &spec)
{
    std::string error = budgetSpecError(spec);
    if (!error.empty())
        CC_FATAL("bad budget spec: ", error);

    uint64_t max_budget =
        *std::max_element(spec.budgets.begin(), spec.budgets.end());

    uint64_t min_geometry = UINT64_MAX;
    for (const cache::CacheConfig &geometry : spec.cacheGeometries) {
        if (geometry.capacityBytes > max_budget) {
            ++prunedGeometries_;
            continue;
        }
        geometries_.push_back(geometry);
        min_geometry = std::min<uint64_t>(min_geometry,
                                          geometry.capacityBytes);
    }
    if (geometries_.empty())
        CC_FATAL("bad budget spec: every cache geometry exceeds the "
                 "largest budget ", max_budget);

    std::vector<compress::Scheme> schemes =
        spec.schemes.empty() ? compress::allSchemes() : spec.schemes;
    std::vector<compress::StrategyKind> strategies =
        spec.strategies.empty()
            ? std::vector<compress::StrategyKind>{
                  compress::StrategyKind::Greedy,
                  compress::StrategyKind::IterativeRefit}
            : spec.strategies;
    std::vector<uint32_t> caps =
        spec.dictCaps.empty()
            ? std::vector<uint32_t>{16, 64, 256, 1024, 4096}
            : spec.dictCaps;

    // Dictionary ROM bytes the budget must still cover beside the
    // smallest kept cache; 4 bytes is the smallest possible entry, so
    // 4 * cap is the analytic lower bound once the cap is reached.
    uint64_t dict_headroom = max_budget - min_geometry;

    for (compress::Scheme scheme : schemes) {
        uint32_t max_codewords = compress::schemeParams(scheme).maxCodewords;
        std::vector<uint32_t> scheme_caps;
        for (uint32_t cap : caps)
            scheme_caps.push_back(std::min(cap, max_codewords));
        std::sort(scheme_caps.begin(), scheme_caps.end());
        scheme_caps.erase(
            std::unique(scheme_caps.begin(), scheme_caps.end()),
            scheme_caps.end());

        for (compress::StrategyKind strategy : strategies) {
            for (uint32_t cap : scheme_caps) {
                for (int hotcold = 0; hotcold <= (spec.tryHotCold ? 1 : 0);
                     ++hotcold) {
                    ++enumerated_;
                    if (4ull * cap > dict_headroom) {
                        ++pruned_;
                        continue;
                    }
                    SearchPoint point;
                    point.config.scheme = scheme;
                    point.config.strategy = strategy;
                    point.config.maxEntries = cap;
                    point.config.layout = hotcold
                                              ? compress::LayoutMode::HotCold
                                              : compress::LayoutMode::Linear;
                    point.label =
                        std::string(compress::schemeCliName(scheme)) + "/" +
                        compress::strategyName(strategy) + "/d" +
                        std::to_string(cap) + "/" +
                        compress::layoutModeName(point.config.layout);
                    points_.push_back(std::move(point));
                }
            }
        }
    }
}

AutotuneResult
autotune(const std::vector<std::string> &workloadNames,
         const BudgetSpec &spec, const AutotuneOptions &options)
{
    Clock::time_point start = Clock::now();

    const std::vector<std::string> &known = workloads::benchmarkNames();
    for (const std::string &name : workloadNames)
        if (std::find(known.begin(), known.end(), name) == known.end())
            CC_FATAL("unknown workload \"", name, "\"");

    SearchSpace space(spec);

    AutotuneResult result;
    result.budgets = spec.budgets;
    std::sort(result.budgets.begin(), result.budgets.end());
    result.budgets.erase(
        std::unique(result.budgets.begin(), result.budgets.end()),
        result.budgets.end());
    result.enumerated = space.enumerated();
    result.pruned = space.pruned();
    result.prunedGeometries = space.prunedGeometries();

    // Compress every candidate as a farm job: the shared PipelineCache
    // enumerates each workload once (enumeration keys are
    // scheme-independent) and --isolate fault tolerance comes free.
    std::vector<farm::FarmJob> jobs;
    jobs.reserve(workloadNames.size() * space.points().size());
    for (const std::string &name : workloadNames) {
        for (const SearchPoint &point : space.points()) {
            farm::FarmJob job;
            job.id = name + "/" + point.label;
            job.workload = name;
            job.config = point.config;
            jobs.push_back(std::move(job));
        }
    }
    farm::FarmOptions farm_options;
    farm_options.cache = options.cache;
    farm_options.cacheDir = options.cacheDir;
    farm_options.isolate = options.isolate;
    farm_options.workerBinary = options.workerBinary;
    farm_options.keepImages = true;
    farm::FarmReport report = farm::runFarm(jobs, farm_options);
    result.cacheStats = report.cacheStats;
    for (const farm::FarmJobResult &job : report.results)
        if (!job.ok())
            ++result.failedJobs;

    // Time every surviving image (and the native baseline) under every
    // kept geometry; one execution per image feeds all timers.
    size_t points_per_workload = space.points().size();
    result.workloads = parallelMap<WorkloadResult>(
        workloadNames.size(), [&](size_t w) {
            WorkloadResult wr;
            wr.workload = workloadNames[w];
            Program program = workloads::buildBenchmark(workloadNames[w]);
            const std::vector<cache::CacheConfig> &geometries =
                space.geometries();

            {
                std::vector<timing::FetchTimer> timers =
                    makeTimers(spec, geometries);
                Cpu cpu(program);
                runTimed(cpu, timers, spec.maxSteps);
                for (size_t g = 0; g < geometries.size(); ++g) {
                    CandidatePoint point;
                    point.id = "native@" + geometryId(geometries[g]);
                    point.scheme = "native";
                    point.geometry = geometries[g];
                    point.totalBytes = program.textBytes();
                    point.onChipBytes = geometries[g].capacityBytes;
                    point.native = true;
                    point.report = timers[g].report();
                    wr.points.push_back(std::move(point));
                }
            }

            for (size_t j = 0; j < points_per_workload; ++j) {
                const farm::FarmJobResult &job =
                    report.results[w * points_per_workload + j];
                if (!job.ok())
                    continue;
                const SearchPoint &searched = space.points()[j];
                compress::CompressedImage image = loadImage(job.imageBytes);
                std::vector<timing::FetchTimer> timers =
                    makeTimers(spec, geometries);
                CompressedCpu cpu(image);
                runTimed(cpu, timers, spec.maxSteps);
                for (size_t g = 0; g < geometries.size(); ++g) {
                    CandidatePoint point;
                    point.id =
                        searched.label + "@" + geometryId(geometries[g]);
                    point.scheme =
                        compress::schemeCliName(searched.config.scheme);
                    point.strategy =
                        compress::strategyName(searched.config.strategy);
                    point.layout =
                        compress::layoutModeName(searched.config.layout);
                    point.dictEntries = searched.config.maxEntries;
                    point.geometry = geometries[g];
                    point.dictBytes = job.dictBytes;
                    point.totalBytes = job.totalBytes;
                    point.onChipBytes =
                        geometries[g].capacityBytes + job.dictBytes;
                    point.report = timers[g].report();
                    wr.points.push_back(std::move(point));
                }
            }

            computeFrontier(wr);
            computeWinners(wr, result.budgets);
            return wr;
        });

    result.wallMillis = std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count();
    return result;
}

std::string
AutotuneResult::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("budgets").beginArray();
    for (uint64_t budget : budgets)
        json.value(budget);
    json.endArray();
    json.member("enumerated", enumerated);
    json.member("pruned", pruned);
    json.member("pruned_geometries", prunedGeometries);
    json.member("failed_jobs", failedJobs);
    json.key("workloads").beginArray();
    for (const WorkloadResult &wr : workloads) {
        json.beginObject();
        json.member("workload", wr.workload);
        json.key("points").beginArray();
        for (const CandidatePoint &point : wr.points) {
            json.beginObject();
            json.member("id", point.id);
            json.member("scheme", point.scheme);
            if (!point.native) {
                json.member("strategy", point.strategy);
                json.member("layout", point.layout);
                json.member("dict_entries", point.dictEntries);
            }
            json.key("cache")
                .beginObject()
                .member("capacity", point.geometry.capacityBytes)
                .member("line", point.geometry.lineBytes)
                .member("ways", point.geometry.ways)
                .endObject();
            json.member("dict_bytes", point.dictBytes);
            json.member("total_bytes", point.totalBytes);
            json.member("on_chip_bytes", point.onChipBytes);
            json.member("cycles", point.cycles());
            json.member("stall_icache_miss", point.report.stallIcacheMiss);
            json.member("stall_l2_miss", point.report.stallL2Miss);
            json.member("stall_expansion", point.report.stallExpansion);
            json.member("stall_redirect", point.report.stallRedirect);
            json.endObject();
        }
        json.endArray();
        json.key("frontier").beginArray();
        for (uint32_t index : wr.frontier)
            json.value(wr.points[index].id);
        json.endArray();
        json.key("winners").beginArray();
        for (const BudgetWinner &winner : wr.winners) {
            json.beginObject();
            json.member("budget", winner.budget);
            if (winner.point >= 0) {
                const CandidatePoint &point =
                    wr.points[static_cast<size_t>(winner.point)];
                json.member("point", point.id);
                json.member("cycles", point.cycles());
                json.member("on_chip_bytes", point.onChipBytes);
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace codecomp::autotune
