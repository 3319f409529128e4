/**
 * @file
 * ccverify -- lockstep differential verification of the compressed-
 * program processor against the plain processor, over the same source
 * program. Compresses the program internally (the .cci format does not
 * carry the address map the verifier needs), runs both processors
 * instruction for instruction, and reports any divergence with a
 * disassembled window of recent history from both sides.
 *
 *   ccverify <prog.ccp> [options]
 *   ccverify --benchmark <name> [options]
 *
 * Options:
 *   --scheme <name>|all  scheme(s) to verify (all); names come from
 *                        the codec registry (ccompress --list-schemes)
 *   --strategy greedy|reference|refit   selection strategy (greedy)
 *   --max-steps N        instruction budget per run
 *   --window N           retired instructions of history per side
 *   --max-divergences N  stop after N divergences
 *   --check-interval N   full joint state walk every N instructions
 *   --inject dict|rank|disp|all   fault-injection self-test mode:
 *                        mutate the image and expect a divergence
 *   --corrupt N          corruption-campaign mode: N seeded byte-level
 *                        mutants of the serialized image (plus the
 *                        structural mutant set) per scheme, each of
 *                        which must be load-rejected, machine-check
 *                        trapped, or provably behavior-preserving
 *   --checksum           golden-checksum mode: build the image with the
 *                        fast table-driven decoder and the reference
 *                        decoder, compare the item tables and the
 *                        FNV-1a64 digests of the expanded streams
 *   --seed N             fault-injection / corruption seed
 *
 * Exit status follows tool_common.hh: 0 all verified (with --inject,
 * every fault detected; with --corrupt, every mutant contained;
 * with --checksum, both decoders agree); 1 usage or input error;
 * 2 a verification finding (divergence, undetected fault, corruption-
 * hardening failure, or decoder disagreement); 3 internal panic.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "compress/compressor.hh"
#include "compress/objfile.hh"
#include "decompress/engine.hh"
#include "support/serialize.hh"
#include "tool_common.hh"
#include "verify/fault.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

/** One clean lockstep run; returns true if it verified. */
bool
verifyScheme(const Program &program, compress::Scheme scheme,
             compress::StrategyKind strategy,
             const verify::LockstepConfig &config)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    verify::LockstepResult result =
        verify::runLockstep(program, image, config);
    std::printf("[%s/%s] %s", compress::schemeName(scheme),
                compress::strategyName(strategy),
                verify::formatReport(result).c_str());
    return result.ok();
}

/** Fault-injection self-test: the run must diverge and say why. */
bool
verifyInjected(const Program &program, compress::Scheme scheme,
               compress::StrategyKind strategy, verify::FaultKind kind,
               uint64_t seed, const verify::LockstepConfig &config)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    verify::FaultInjection fault =
        verify::injectFault(program, image, kind, seed);
    verify::LockstepResult result =
        verify::runLockstep(program, fault.image, config);
    std::printf("[%s/%s] injected: %s\n", compress::schemeName(scheme),
                verify::faultKindName(kind), fault.description.c_str());
    if (result.ok()) {
        std::printf("FAULT NOT DETECTED after %llu verified "
                    "instructions\n",
                    static_cast<unsigned long long>(result.verifiedInsts));
        return false;
    }
    std::printf("fault detected: %s", verify::formatReport(result).c_str());
    return true;
}

/** Golden-checksum mode: the fast table-driven decoder and the
 *  reference decoder must agree item-for-item and on the digest of the
 *  fully expanded instruction stream. */
bool
verifyChecksum(const Program &program, compress::Scheme scheme,
               compress::StrategyKind strategy)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    DecompressionEngine fast(image, DecodePath::Fast);
    DecompressionEngine reference(image, DecodePath::Reference);

    bool items_equal = fast.items() == reference.items();
    uint64_t fast_digest = fast.expandedStreamDigest();
    uint64_t reference_digest = reference.expandedStreamDigest();
    std::printf("[%s/%s] checksum: %zu items, expanded-stream digest "
                "%016llx (fast) vs %016llx (reference): %s\n",
                compress::schemeName(scheme),
                compress::strategyName(strategy), fast.items().size(),
                static_cast<unsigned long long>(fast_digest),
                static_cast<unsigned long long>(reference_digest),
                items_equal && fast_digest == reference_digest
                    ? "match"
                    : "MISMATCH");
    return items_equal && fast_digest == reference_digest;
}

/** Corruption campaign: every mutant must be contained. */
bool
verifyCorrupt(const Program &program, compress::Scheme scheme,
              compress::StrategyKind strategy, uint64_t count,
              uint64_t seed, uint64_t max_steps)
{
    compress::CompressorConfig cc;
    cc.scheme = scheme;
    cc.strategy = strategy;
    compress::CompressedImage image =
        compress::compressProgram(program, cc);
    verify::CorruptionCampaign campaign =
        verify::runCorruptionCampaign(program, image, count, seed,
                                      max_steps);
    std::printf("[%s] corruption: %llu mutants: %llu load-rejected, "
                "%llu trapped, %llu ran identical, %zu FAILURES\n",
                compress::schemeName(scheme),
                static_cast<unsigned long long>(campaign.total),
                static_cast<unsigned long long>(campaign.loadRejected),
                static_cast<unsigned long long>(campaign.trapped),
                static_cast<unsigned long long>(campaign.ranIdentical),
                campaign.failures.size());
    for (const verify::MutantReport &failure : campaign.failures)
        std::printf("  %s: %s\n    %s\n",
                    verify::mutantOutcomeName(failure.outcome),
                    failure.description.c_str(), failure.detail.c_str());
    return campaign.ok();
}

int
run(int argc, char **argv)
{
    std::string benchmark;
    std::vector<compress::Scheme> schemes = compress::allSchemes();
    compress::StrategyKind strategy = compress::StrategyKind::Greedy;
    std::vector<verify::FaultKind> kinds;
    uint64_t seed = 1, corrupt_count = 0;
    bool checksum = false;
    verify::LockstepConfig config;

    tools::Command command{
        "ccverify", "<prog.ccp>", 0, 1,
        {tools::text("--benchmark", "NAME", benchmark),
         {"--scheme", compress::schemeCliNames() + "|all",
          [&](const char *name) {
              schemes = std::string_view(name) == "all"
                            ? compress::allSchemes()
                            : std::vector{tools::parseScheme(name)};
          }},
         {"--strategy", compress::strategyCliNames("|"),
          [&](const char *name) {
              strategy = compress::parseStrategyNameOrFatal(name);
          }},
         tools::maxStepsOption(config.maxSteps),
         tools::number("--window", config.window, 1),
         tools::number("--max-divergences", config.maxDivergences, 1),
         tools::number("--check-interval", config.fullCheckInterval),
         {"--inject", "dict|rank|disp|all",
          [&](const char *name) {
              using verify::FaultKind;
              std::string_view kind = name;
              kinds.clear();
              for (auto [label, fault] :
                   {std::pair{"dict", FaultKind::DictEntryWord},
                    std::pair{"rank", FaultKind::CodewordRank},
                    std::pair{"disp", FaultKind::BranchDisp}})
                  if (kind == label || kind == "all")
                      kinds.push_back(fault);
              if (kinds.empty())
                  throw tools::UsageError(
                      "unknown --inject '" + std::string(kind) +
                      "' (expected dict, rank, disp, all)");
          }},
         tools::number("--corrupt", corrupt_count),
         tools::flag("--checksum", checksum),
         tools::number("--seed", seed)}};
    std::vector<std::string> inputs = command.parse(argc, argv);
    if (inputs.empty() == benchmark.empty())
        command.fail("give either <prog.ccp> or --benchmark NAME");

    Program program;
    if (!benchmark.empty()) {
        program = workloads::buildBenchmark(benchmark);
    } else {
        std::vector<uint8_t> bytes = readFile(inputs[0]);
        if (!tools::hasMagic(bytes, "CCPR"))
            throw tools::UsageError(inputs[0] + " is not a .ccp program");
        program = loadProgram(bytes);
    }

    bool ok = true;
    for (compress::Scheme scheme : schemes) {
        if (checksum) {
            ok = verifyChecksum(program, scheme, strategy) && ok;
        } else if (corrupt_count > 0) {
            ok = verifyCorrupt(program, scheme, strategy, corrupt_count,
                               seed, config.maxSteps) &&
                 ok;
        } else if (kinds.empty()) {
            ok = verifyScheme(program, scheme, strategy, config) && ok;
        } else {
            for (verify::FaultKind kind : kinds)
                ok = verifyInjected(program, scheme, strategy, kind, seed,
                                    config) &&
                     ok;
        }
    }
    return ok ? tools::exitOk : tools::exitFinding;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccverify", [&] { return run(argc, argv); });
}
