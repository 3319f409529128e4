#include "workloads.hh"

#include <cctype>

#include "codegen/codegen.hh"
#include "codegen/lexer.hh"
#include "codegen/parser.hh"
#include "compress/codec.hh"
#include "compress/objfile.hh"
#include "compress/pipeline.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "decompress/engine.hh"
#include "farm/farm.hh"
#include "link/linker.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

#include "stats.hh"

namespace perfbench {

using namespace codecomp;

namespace {

/** ccompress's default dictionary budget (farm jobs use it too). */
constexpr uint32_t kToolMaxEntries = 4680;

/** Counter sums of the traced ops, by name. */
using Counters = std::map<std::string, double>;

double
get(const std::map<std::string, double> &map, const std::string &key)
{
    auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
}

/** Mean per op of the spans named @p name, in ms. */
double
perOp(const std::map<std::string, double> &spanMs, const std::string &name,
      double ops)
{
    return ops > 0.0 ? get(spanMs, name) / ops : 0.0;
}

/** @p count per second of the spans named @p name. */
double
rate(double count, const std::map<std::string, double> &spanMs,
     const std::string &name)
{
    double ms = get(spanMs, name);
    return ms > 0.0 ? count / (ms / 1000.0) : 0.0;
}

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** Memory the Enumerate product holds, MiB: every candidate's
 *  sequence and position list at their allocated capacity. */
double
candidateMb(const std::vector<compress::Candidate> &candidates)
{
    size_t bytes = candidates.capacity() * sizeof(compress::Candidate);
    for (const compress::Candidate &candidate : candidates)
        bytes += candidate.seq.capacity() * sizeof(isa::Word) +
                 candidate.positions.capacity() * sizeof(uint32_t);
    return static_cast<double>(bytes) / (1 << 20);
}

/** First difference between two runs' observable results, or "". */
std::string
compareRuns(const ExecResult &expected, const ExecResult &actual,
            const char *what)
{
    if (expected.exitCode != actual.exitCode)
        return std::string(what) + ": exit code " +
               std::to_string(actual.exitCode) + " != reference " +
               std::to_string(expected.exitCode);
    if (expected.output != actual.output)
        return std::string(what) + ": output differs from reference (" +
               std::to_string(actual.output.size()) + " vs " +
               std::to_string(expected.output.size()) + " bytes)";
    return "";
}

// ---------------------------------------------------------------------------
// toolchain: MiniC source -> validated .cci -> one compressed run.

class ToolchainWorkload : public Workload
{
  public:
    ToolchainWorkload()
    {
        // A Latin square over (workload, scale step) picks the codec:
        // every workload meets every codec across its four scales and
        // every scale meets every codec twice, in 32 tuples instead of
        // the full 128-tuple cross product.
        const std::vector<std::string> &names = workloads::benchmarkNames();
        const std::vector<compress::Scheme> schemes = compress::allSchemes();
        const int scales[] = {1, 2, 4, 8};
        for (size_t w = 0; w < names.size(); ++w) {
            for (size_t step = 0; step < std::size(scales); ++step) {
                tuples_.push_back({names[w], scales[step],
                                   schemes[(w + step) % schemes.size()]});
            }
        }
        ratios_.assign(tuples_.size(), 0.0);
    }

    size_t tupleCount() const override { return tuples_.size(); }

    std::string
    tupleLabel(size_t tuple) const override
    {
        const Tuple &t = tuples_[tuple];
        return t.workload + "/s" + std::to_string(t.scale) + "/" +
               compress::schemeCliName(t.scheme);
    }

    void
    setUp() override
    {
        refs_ = parallelMap<Reference>(tuples_.size(), [this](size_t i) {
            Program program = workloads::buildBenchmark(tuples_[i].workload,
                                                        tuples_[i].scale);
            return Reference{fnv1a64(saveProgram(program)),
                             runProgram(program)};
        });
    }

    OpOutcome
    run(size_t tuple, uint32_t op, Tracer *tracer, int32_t root) override
    {
        const Tuple &t = tuples_[tuple];
        const Reference &ref = refs_[tuple];
        OpOutcome out;

        std::string source;
        {
            ScopedSpan span(tracer, "workloads.source", root, op);
            source = workloads::benchmarkSource(t.workload, t.scale);
        }
        size_t tokens = 0;
        {
            ScopedSpan span(tracer, "codegen.lex", root, op);
            tokens = codegen::lex(source).size();
        }
        codegen::TranslationUnit unit;
        {
            ScopedSpan span(tracer, "codegen.parse", root, op);
            unit = codegen::parse(source);
        }
        std::vector<link::ObjectModule> modules;
        {
            ScopedSpan span(tracer, "codegen.codegen", root, op);
            modules.push_back(codegen::compileModuleUnit(unit, "main"));
            modules.push_back(codegen::runtimeModule());
        }
        Program program;
        {
            ScopedSpan span(tracer, "link.link", root, op);
            program = link::linkModules(modules);
        }
        std::vector<uint8_t> ccp;
        Program loaded;
        {
            ScopedSpan span(tracer, "objfile.program_roundtrip", root, op);
            ccp = saveProgram(program);
            Result<Program> result = tryLoadProgram(ccp);
            if (!result.ok()) {
                out.error = ".ccp reload: " + result.error().message();
                return out;
            }
            loaded = result.take();
        }
        size_t staticInsts = loaded.text.size();

        compress::CompressorConfig config;
        config.scheme = t.scheme;
        config.maxEntries = kToolMaxEntries;
        std::unique_ptr<compress::PipelineContext> ctx;
        {
            ScopedSpan span(tracer, "compress.enumerate", root, op);
            ctx = std::make_unique<compress::PipelineContext>(loaded,
                                                              config);
            compress::passEnumerate(*ctx);
        }
        size_t candidates = ctx->candidateList().size();
        {
            ScopedSpan span(tracer, "compress.select", root, op);
            compress::passSelect(*ctx);
        }
        uint32_t rounds = ctx->strategy->rounds();
        {
            ScopedSpan span(tracer, "compress.rankassign", root, op);
            compress::passRankAssign(*ctx);
        }
        {
            ScopedSpan span(tracer, "compress.layout", root, op);
            compress::passLayout(*ctx);
        }
        {
            ScopedSpan span(tracer, "compress.branchpatch", root, op);
            compress::passBranchPatch(*ctx);
        }
        {
            ScopedSpan span(tracer, "compress.emit", root, op);
            compress::passEmit(*ctx);
        }
        std::vector<uint8_t> cci;
        {
            ScopedSpan span(tracer, "objfile.image_save", root, op);
            cci = saveImage(ctx->image);
        }
        compress::CompressedImage image;
        {
            ScopedSpan span(tracer, "objfile.image_load", root, op);
            Result<compress::CompressedImage> result = tryLoadImage(cci);
            if (!result.ok()) {
                out.error = ".cci reload: " + result.error().message();
                return out;
            }
            image = result.take();
        }
        ExecResult compressed;
        {
            ScopedSpan span(tracer, "decompress.compressed_run", root, op);
            CompressedCpu cpu(image);
            compressed = cpu.run();
        }

        {
            ScopedSpan span(tracer, "bench.check", root, op);
            if (fnv1a64(ccp) != ref.programFnv)
                out.error = "program FNV-1a64 differs from buildBenchmark";
            else
                out.error = compareRuns(ref.native, compressed,
                                        "compressed run");
            ratios_[tuple] = ctx->image.compressionRatio();
            if (tracer) {
                size_t emitted = 0;
                for (const link::ObjectModule &module : modules)
                    emitted += module.text.size();
                counters_["tokens"] += static_cast<double>(tokens);
                counters_["emitted_insts"] += static_cast<double>(emitted);
                counters_["candidates"] += static_cast<double>(candidates);
                counters_["enumerate_mb"] +=
                    candidateMb(ctx->candidateList());
                counters_["select_rounds"] += rounds;
                counters_["entries"] +=
                    static_cast<double>(ctx->image.entriesByRank.size());
                counters_["far_branch_expansions"] +=
                    ctx->image.farBranchExpansions;
                counters_["image_bytes"] += static_cast<double>(cci.size());
                counters_["compressed_insts"] +=
                    static_cast<double>(compressed.instCount);
            }
            // Release the op's products inside the span, so their
            // teardown is attributed, not left between layers.
            ctx.reset();
            image = {};
            loaded = {};
            program = {};
            modules.clear();
            unit = {};
            std::string().swap(source);
            std::vector<uint8_t>().swap(ccp);
            std::vector<uint8_t>().swap(cci);
            compressed = {};
        }
        out.work = static_cast<double>(staticInsts);
        return out;
    }

    double ratio(size_t tuple) const override { return ratios_[tuple]; }

    void
    layerValues(const std::map<std::string, double> &spanMs, double ops,
                LayerValues &out) const override
    {
        auto counter = [this](const char *name) {
            return get(counters_, name);
        };
        out["workloads.source_ms"] = perOp(spanMs, "workloads.source", ops);
        out["codegen.lex_ms"] = perOp(spanMs, "codegen.lex", ops);
        out["codegen.tokens_per_s"] =
            rate(counter("tokens"), spanMs, "codegen.lex");
        // parse() lexes internally: its self time is parse - lex.
        out["codegen.parse_ms"] = perOp(spanMs, "codegen.parse", ops) -
                                  perOp(spanMs, "codegen.lex", ops);
        out["codegen.codegen_ms"] = perOp(spanMs, "codegen.codegen", ops);
        out["codegen.emitted_insts_per_s"] =
            rate(counter("emitted_insts"), spanMs, "codegen.codegen");
        out["link.link_ms"] = perOp(spanMs, "link.link", ops);
        out["objfile.program_roundtrip_ms"] =
            perOp(spanMs, "objfile.program_roundtrip", ops);
        out["objfile.image_save_ms"] =
            perOp(spanMs, "objfile.image_save", ops);
        out["objfile.image_load_ms"] =
            perOp(spanMs, "objfile.image_load", ops);
        double imageMs = get(spanMs, "objfile.image_save") +
                         get(spanMs, "objfile.image_load");
        out["objfile.image_mb_per_s"] =
            imageMs > 0.0 ? 2.0 * counter("image_bytes") / (1 << 20) /
                                (imageMs / 1000.0)
                          : 0.0;
        out["compress.enumerate_ms"] =
            perOp(spanMs, "compress.enumerate", ops);
        out["compress.candidates"] = share(counter("candidates"), ops);
        out["compress.candidates_per_s"] =
            rate(counter("candidates"), spanMs, "compress.enumerate");
        out["compress.enumerate_mb"] = share(counter("enumerate_mb"), ops);
        out["compress.select_ms"] = perOp(spanMs, "compress.select", ops);
        out["compress.select_rounds"] = share(counter("select_rounds"), ops);
        out["compress.entries"] = share(counter("entries"), ops);
        out["compress.rankassign_ms"] =
            perOp(spanMs, "compress.rankassign", ops);
        out["compress.layout_ms"] = perOp(spanMs, "compress.layout", ops);
        out["compress.branchpatch_ms"] =
            perOp(spanMs, "compress.branchpatch", ops);
        out["compress.emit_ms"] = perOp(spanMs, "compress.emit", ops);
        out["compress.far_branch_expansions"] =
            share(counter("far_branch_expansions"), ops);
        out["decompress.compressed_insts_per_s"] =
            rate(counter("compressed_insts"), spanMs,
                 "decompress.compressed_run");
    }

  private:
    struct Tuple
    {
        std::string workload;
        int scale;
        compress::Scheme scheme;
    };

    struct Reference
    {
        uint64_t programFnv = 0;
        ExecResult native;
    };

    std::vector<Tuple> tuples_;
    std::vector<Reference> refs_; //!< per tuple
    std::vector<double> ratios_;
    Counters counters_;
};

// ---------------------------------------------------------------------------
// execute: cctime's work on one (program, image) pair built at set-up.

class ExecuteWorkload : public Workload
{
  public:
    ExecuteWorkload()
    {
        const std::vector<std::string> &names = workloads::benchmarkNames();
        for (size_t p = 0; p < names.size(); ++p)
            for (compress::Scheme scheme : compress::allSchemes())
                tuples_.push_back({p, scheme});
        cycles_.assign(tuples_.size(), 0.0);
    }

    size_t tupleCount() const override { return tuples_.size(); }

    bool singleThreaded() const override { return true; }

    std::string
    tupleLabel(size_t tuple) const override
    {
        return workloads::benchmarkNames()[tuples_[tuple].program] + "/" +
               compress::schemeCliName(tuples_[tuple].scheme);
    }

    void
    setUp() override
    {
        const std::vector<std::string> &names = workloads::benchmarkNames();
        programs_ = parallelMap<Program>(names.size(), [&names](size_t i) {
            return workloads::buildBenchmark(names[i]);
        });
        images_ = parallelMap<Image>(tuples_.size(), [this](size_t i) {
            compress::CompressorConfig config;
            config.scheme = tuples_[i].scheme;
            config.maxEntries = kToolMaxEntries;
            Image image;
            image.image = compress::compressProgram(program(i), config);
            image.cci = saveImage(image.image);
            return image;
        });
    }

    OpOutcome
    run(size_t tuple, uint32_t op, Tracer *tracer, int32_t root) override
    {
        OpOutcome out;
        compress::CompressedImage image;
        {
            ScopedSpan span(tracer, "objfile.image_load", root, op);
            Result<compress::CompressedImage> result =
                tryLoadImage(images_[tuple].cci);
            if (!result.ok()) {
                out.error = ".cci load: " + result.error().message();
                return out;
            }
            image = result.take();
        }
        size_t items = 0;
        {
            ScopedSpan span(tracer, "decompress.scan", root, op);
            DecompressionEngine engine(image);
            items = engine.items().size();
        }
        const timing::TimingConfig config;
        ExecResult native, compressed;
        timing::TimingReport nativeReport, compressedReport;
        FetchStats fetch;
        {
            ScopedSpan span(tracer, "decompress.native_run", root, op);
            timing::FetchTimer timer(config);
            Cpu cpu(program(tuple));
            cpu.setFetchHook(timer.hook());
            native = cpu.run();
            nativeReport = timer.report();
        }
        {
            ScopedSpan span(tracer, "decompress.compressed_run", root, op);
            timing::FetchTimer timer(config);
            CompressedCpu cpu(image);
            cpu.setFetchHook(timer.hook());
            compressed = cpu.run();
            compressedReport = timer.report();
            fetch = cpu.fetchStats();
        }
        {
            ScopedSpan span(tracer, "bench.check", root, op);
            out.error = compareRuns(native, compressed, "compressed run");
            cycles_[tuple] =
                share(static_cast<double>(compressedReport.cycles()),
                      static_cast<double>(nativeReport.cycles()));
            if (tracer) {
                counters_["items"] += static_cast<double>(items);
                counters_["image_bytes"] +=
                    static_cast<double>(images_[tuple].cci.size());
                counters_["item_fetches"] +=
                    static_cast<double>(fetch.itemFetches);
                counters_["codeword_fetches"] +=
                    static_cast<double>(fetch.codewordFetches);
                counters_["expanded_insts"] +=
                    static_cast<double>(fetch.expandedInsts);
                counters_["native_accesses"] +=
                    static_cast<double>(nativeReport.icache.accesses);
                counters_["native_misses"] +=
                    static_cast<double>(nativeReport.icache.misses);
                counters_["compressed_accesses"] +=
                    static_cast<double>(compressedReport.icache.accesses);
                counters_["compressed_misses"] +=
                    static_cast<double>(compressedReport.icache.misses);
                counters_["stall_expansion"] +=
                    static_cast<double>(compressedReport.stallExpansion);
                counters_["compressed_cycles"] +=
                    static_cast<double>(compressedReport.cycles());
            }
            image = {};
        }
        out.work = static_cast<double>(native.instCount +
                                       compressed.instCount);
        return out;
    }

    /**
     * Traced runs only, outside the op: the same pair run without a
     * FetchTimer (the plain interpreter rates the timing layer's hook
     * cost is measured against), then verified in lockstep as ccverify
     * would (the verify layer; a divergence fails the op).
     */
    std::string
    probe(size_t tuple, uint32_t op, Tracer &tracer) override
    {
        ExecResult native, compressed;
        {
            ScopedSpan span(&tracer, "probe.native_run", -1, op);
            native = runProgram(program(tuple));
        }
        {
            ScopedSpan span(&tracer, "probe.compressed_run", -1, op);
            CompressedCpu cpu(images_[tuple].image);
            compressed = cpu.run();
        }
        verify::LockstepResult lockstep;
        {
            ScopedSpan span(&tracer, "verify.lockstep", -1, op);
            lockstep = verify::runLockstep(program(tuple),
                                           images_[tuple].image);
        }
        if (!lockstep.ok())
            return "lockstep divergence: " +
                   lockstep.divergences.front().kind + " " +
                   lockstep.divergences.front().detail;
        counters_["probe_native_insts"] +=
            static_cast<double>(native.instCount);
        counters_["probe_compressed_insts"] +=
            static_cast<double>(compressed.instCount);
        counters_["verified_insts"] +=
            static_cast<double>(lockstep.verifiedInsts);
        counters_["full_state_checks"] +=
            static_cast<double>(lockstep.fullStateChecks);
        return "";
    }

    double
    ratio(size_t tuple) const override
    {
        return images_[tuple].image.compressionRatio();
    }

    double cyclesRatio(size_t tuple) const override { return cycles_[tuple]; }

    void
    layerValues(const std::map<std::string, double> &spanMs, double ops,
                LayerValues &out) const override
    {
        auto counter = [this](const char *name) {
            return get(counters_, name);
        };
        out["objfile.image_load_ms"] =
            perOp(spanMs, "objfile.image_load", ops);
        out["objfile.image_mb_per_s"] =
            rate(counter("image_bytes") / (1 << 20), spanMs,
                 "objfile.image_load");
        out["decompress.scan_ms"] = perOp(spanMs, "decompress.scan", ops);
        out["decompress.items_per_s"] =
            rate(counter("items"), spanMs, "decompress.scan");
        double nativeRate = rate(counter("probe_native_insts"), spanMs,
                                 "probe.native_run");
        double compressedRate = rate(counter("probe_compressed_insts"),
                                     spanMs, "probe.compressed_run");
        out["decompress.native_insts_per_s"] = nativeRate;
        out["decompress.compressed_insts_per_s"] = compressedRate;
        out["decompress.codeword_fetch_share"] =
            share(counter("codeword_fetches"), counter("item_fetches"));
        out["decompress.expanded_per_codeword"] =
            share(counter("expanded_insts"), counter("codeword_fetches"));
        // The op's runs carry a FetchTimer; the probes run the same pair
        // without one, so the difference is the timing layer's cost.
        out["timing.hook_ms"] =
            perOp(spanMs, "decompress.native_run", ops) +
            perOp(spanMs, "decompress.compressed_run", ops) -
            perOp(spanMs, "probe.native_run", ops) -
            perOp(spanMs, "probe.compressed_run", ops);
        out["timing.icache_miss_rate.native"] =
            share(counter("native_misses"), counter("native_accesses"));
        out["timing.icache_miss_rate.compressed"] = share(
            counter("compressed_misses"), counter("compressed_accesses"));
        out["timing.expansion_stall_share"] =
            share(counter("stall_expansion"), counter("compressed_cycles"));
        double verified = counter("verified_insts");
        double lockstepNs =
            verified > 0.0 ? get(spanMs, "verify.lockstep") * 1e6 / verified
                           : 0.0;
        double plainNs = (nativeRate > 0.0 ? 1e9 / nativeRate : 0.0) +
                         (compressedRate > 0.0 ? 1e9 / compressedRate : 0.0);
        out["verify.lockstep_ms"] = perOp(spanMs, "verify.lockstep", ops);
        out["verify.ns_per_inst"] = lockstepNs;
        out["verify.overhead_x"] = share(lockstepNs, plainNs);
        out["verify.full_state_checks"] =
            share(counter("full_state_checks"), ops);
    }

  private:
    struct Tuple
    {
        size_t program; //!< index into programs_ (benchmarkNames order)
        compress::Scheme scheme;
    };

    struct Image
    {
        compress::CompressedImage image; //!< in memory, as compressed
        std::vector<uint8_t> cci;        //!< saveImage(image)
    };

    const Program &
    program(size_t tuple) const
    {
        return programs_[tuples_[tuple].program];
    }

    std::vector<Tuple> tuples_;
    std::vector<Program> programs_;
    std::vector<Image> images_;
    std::vector<double> cycles_;
    Counters counters_;
};

// ---------------------------------------------------------------------------
// farm: one runFarm batch per op over the starter corpus plus duplicates.

class FarmWorkload : public Workload
{
  public:
    explicit FarmWorkload(unsigned poolWidth) : poolWidth_(poolWidth)
    {
        options_.cache = true;
        options_.isolate = false;
        options_.keepImages = false;
        starter_ = farm::starterCorpus();
        // Batch v is the starter corpus plus one more copy of every job
        // of workload v (the farm_dup pattern: identical jobs whose
        // Select product the cache should serve).
        for (const std::string &name : workloads::benchmarkNames()) {
            std::vector<farm::FarmJob> batch = starter_;
            for (const farm::FarmJob &job : dupsOf(name))
                batch.push_back(job);
            batches_.push_back(std::move(batch));
        }
        keys_.resize(batches_.size());
        ratios_.assign(batches_.size(), 0.0);
    }

    size_t tupleCount() const override { return batches_.size(); }

    std::string
    tupleLabel(size_t tuple) const override
    {
        return "starter+dup:" + workloads::benchmarkNames()[tuple];
    }

    void
    setUp() override
    {
        const std::vector<std::string> &names = workloads::benchmarkNames();
        std::vector<Program> programs =
            parallelMap<Program>(names.size(), [&names](size_t i) {
                return workloads::buildBenchmark(names[i]);
            });
        std::map<std::string, uint64_t> hashOf;
        for (size_t i = 0; i < names.size(); ++i) {
            hashOf[names[i]] =
                compress::PipelineCache::programHash(programs[i]);
            staticInsts_[names[i]] =
                static_cast<double>(programs[i].text.size());
        }
        // Keys each batch needs computed at least once: the floor the
        // cache's misses are measured against.
        for (size_t v = 0; v < batches_.size(); ++v) {
            std::vector<uint64_t> enumKeys, selectKeys;
            for (const farm::FarmJob &job : batches_[v]) {
                uint64_t hash = hashOf.at(job.workload);
                enumKeys.push_back(compress::PipelineCache::enumerateKey(
                    hash, job.config));
                selectKeys.push_back(
                    compress::PipelineCache::selectKey(hash, job.config));
            }
            keys_[v].distinctEnumKeys = distinctCount(enumKeys);
            keys_[v].distinctSelectKeys = distinctCount(selectKeys);
        }

        // One pool-width-1 run of every job any batch contains (the
        // starter corpus, then each workload's duplicates); each batch's
        // expected resultsJson() is cut from it in batch order.
        std::vector<farm::FarmJob> all = starter_;
        for (const std::string &name : names)
            for (const farm::FarmJob &job : dupsOf(name))
                all.push_back(job);
        setGlobalJobs(1);
        farm::FarmReport reference = farm::runFarm(all, options_);
        setGlobalJobs(poolWidth_);
        if (reference.failures() != 0)
            CC_FATAL("farm reference run failed ",
                     reference.failures(), " jobs");
        expected_.clear();
        size_t next = starter_.size();
        for (size_t v = 0; v < batches_.size(); ++v) {
            farm::FarmReport expected;
            expected.results.assign(reference.results.begin(),
                                    reference.results.begin() +
                                        starter_.size());
            size_t dups = batches_[v].size() - starter_.size();
            expected.results.insert(
                expected.results.end(), reference.results.begin() + next,
                reference.results.begin() + next + dups);
            next += dups;
            expected_.push_back(expected.resultsJson());
        }
    }

    OpOutcome
    run(size_t tuple, uint32_t op, Tracer *tracer, int32_t root) override
    {
        OpOutcome out;
        farm::FarmReport report;
        {
            ScopedSpan span(tracer, "farm.run", root, op);
            report = farm::runFarm(batches_[tuple], options_);
        }
        {
            ScopedSpan span(tracer, "bench.check", root, op);
            if (report.failures() != 0)
                out.error = std::to_string(report.failures()) +
                            " farm jobs failed";
            else if (report.resultsJson() != expected_[tuple])
                out.error = "resultsJson differs from the pool-width-1 "
                            "reference";
            std::vector<double> ratios;
            for (const farm::FarmJobResult &result : report.results) {
                ratios.push_back(result.ratio);
                out.work += get(staticInsts_, result.workload);
            }
            ratios_[tuple] = geomean(ratios).value_or(0.0);
            if (tracer)
                record(tuple, report);
            report = {};
        }
        return out;
    }

    double ratio(size_t tuple) const override { return ratios_[tuple]; }

    void
    layerValues(const std::map<std::string, double> & /*spanMs*/,
                double ops, LayerValues &out) const override
    {
        auto counter = [this](const char *name) {
            return get(counters_, name);
        };
        // Compress-layer numbers come from each job's own PipelineStats
        // (jobs run on pool threads, outside the benchmark's spans):
        // per batch, summed over its jobs.
        for (const char *pass : {"enumerate", "select", "rankassign",
                                 "layout", "branchpatch", "emit"})
            out[std::string("compress.") + pass + "_ms"] =
                share(counter((std::string("pass_") + pass).c_str()), ops);
        out["compress.candidates"] = share(counter("candidates"), ops);
        out["compress.candidates_per_s"] =
            share(counter("candidates"), counter("pass_enumerate") / 1000.0);
        out["compress.select_rounds"] = share(counter("select_rounds"), ops);
        out["compress.entries"] = share(counter("entries"), ops);
        out["compress.far_branch_expansions"] =
            share(counter("far_branch_expansions"), ops);
        out["cache.enum_hit_ratio"] =
            hitRatio(static_cast<uint64_t>(counter("enum_hits")),
                     static_cast<uint64_t>(counter("enum_misses")));
        out["cache.select_hit_ratio"] =
            hitRatio(static_cast<uint64_t>(counter("select_hits")),
                     static_cast<uint64_t>(counter("select_misses")));
        out["cache.duplicate_computations"] =
            share(counter("duplicate_computations"), ops);
        out["farm.build_ms"] = share(counter("build_ms"), ops);
        out["farm.queue_ms"] = share(counter("queue_ms"), ops);
        out["farm.job_ms.p50"] = median(jobMillis_);
        out["farm.pool_utilization"] =
            share(counter("job_ms"), counter("queue_ms") * poolWidth_);
        out["farm.failed_jobs"] = share(counter("failed_jobs"), ops);
    }

  private:
    struct BatchKeys
    {
        uint64_t distinctEnumKeys = 0;
        uint64_t distinctSelectKeys = 0;
    };

    /** One more copy of every starter job of workload @p name. */
    std::vector<farm::FarmJob>
    dupsOf(const std::string &name) const
    {
        std::vector<farm::FarmJob> dups;
        for (const farm::FarmJob &job : starter_) {
            if (job.workload != name)
                continue;
            dups.push_back(job);
            dups.back().id += "#dup";
        }
        return dups;
    }

    /** Accumulate a traced batch's layer counters, exactly as the farm
     *  and its cache report them. */
    void
    record(size_t tuple, const farm::FarmReport &report)
    {
        const compress::PipelineCache::Stats &cache = report.cacheStats;
        counters_["enum_hits"] += static_cast<double>(cache.enumHits);
        counters_["enum_misses"] += static_cast<double>(cache.enumMisses);
        counters_["select_hits"] += static_cast<double>(cache.selectHits);
        counters_["select_misses"] +=
            static_cast<double>(cache.selectMisses);
        counters_["duplicate_computations"] += static_cast<double>(
            duplicateComputations(cache.enumMisses,
                                  keys_[tuple].distinctEnumKeys) +
            duplicateComputations(cache.selectMisses,
                                  keys_[tuple].distinctSelectKeys));
        counters_["build_ms"] += report.buildMillis;
        counters_["queue_ms"] += report.compressMillis;
        counters_["failed_jobs"] += static_cast<double>(report.failures());
        for (const farm::FarmJobResult &result : report.results) {
            jobMillis_.push_back(result.millis);
            counters_["job_ms"] += result.millis;
            for (const compress::PassStats &pass : result.stats.passes) {
                std::string name = pass.name;
                for (char &c : name)
                    c = static_cast<char>(std::tolower(c));
                counters_["pass_" + name] += pass.millis;
            }
            if (const compress::PassStats *pass =
                    result.stats.pass("Enumerate"))
                counters_["candidates"] +=
                    static_cast<double>(pass->counter("candidates"));
            if (const compress::PassStats *pass =
                    result.stats.pass("Select")) {
                counters_["select_rounds"] +=
                    static_cast<double>(pass->counter("rounds"));
                counters_["entries"] +=
                    static_cast<double>(pass->counter("entries"));
            }
            counters_["far_branch_expansions"] += result.farBranchExpansions;
        }
    }

    unsigned poolWidth_;
    farm::FarmOptions options_;
    std::vector<farm::FarmJob> starter_;
    std::vector<std::vector<farm::FarmJob>> batches_;
    std::vector<BatchKeys> keys_;
    std::vector<std::string> expected_;
    std::map<std::string, double> staticInsts_;
    std::vector<double> ratios_;
    std::vector<double> jobMillis_;
    Counters counters_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"toolchain", "farm",
                                                   "execute"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, unsigned poolWidth)
{
    if (name == "toolchain")
        return std::make_unique<ToolchainWorkload>();
    if (name == "farm")
        return std::make_unique<FarmWorkload>(poolWidth);
    if (name == "execute")
        return std::make_unique<ExecuteWorkload>();
    return nullptr;
}

} // namespace perfbench
