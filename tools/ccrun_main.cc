/**
 * @file
 * ccrun -- execute a .ccp program (plain processor) or a .cci image
 * (compressed-program processor). Program output goes to stdout; the
 * simulated exit code becomes ccrun's exit code.
 *
 *   ccrun prog.ccp [--max-steps N] [--stats]
 *   ccrun prog.cci [--max-steps N] [--stats]
 *
 * --stats prints a human-readable line and a machine-readable
 * "CCRUN_JSON: {...}" line (same fields) to stderr, keeping stdout
 * byte-identical to the simulated program's output.
 *
 * Exit status: the simulated program's exit code on a clean run;
 * otherwise the contract in tool_common.hh (1 bad input, 2 machine
 * check during execution, 3 internal panic).
 */

#include <cstdio>
#include <string>

#include "compress/objfile.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "support/json.hh"
#include "support/serialize.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

/** The --stats fields, machine-readable (support/json). */
std::string
statsJson(const char *kind, const ExecResult &result,
          const FetchStats &fetch)
{
    JsonWriter json;
    json.beginObject()
        .member("kind", kind)
        .member("instructions", result.instCount)
        .member("item_fetches", fetch.itemFetches)
        .member("codeword_fetches", fetch.codewordFetches)
        .member("expanded_insts", fetch.expandedInsts)
        .member("fetched_bytes", fetch.fetchedBytes)
        .member("taken_branches", fetch.takenBranches)
        .member("exit_code", result.exitCode)
        .endObject();
    return json.str();
}

int
run(int argc, char **argv)
{
    uint64_t max_steps = 1ull << 28;
    bool stats = false;

    tools::Command command{"ccrun", "<prog.ccp|prog.cci>", 1, 1,
                           {tools::maxStepsOption(max_steps),
                            tools::flag("--stats", stats)}};
    std::string input = command.parse(argc, argv)[0];

    std::vector<uint8_t> bytes = readFile(input);
    if (tools::hasMagic(bytes, "CCPR")) {
        Program program = loadProgram(bytes);
        Cpu cpu(program);
        ExecResult result = cpu.run(max_steps);
        std::fputs(result.output.c_str(), stdout);
        if (stats) {
            std::fprintf(stderr, "ccrun: %llu instructions, exit %d\n",
                         static_cast<unsigned long long>(result.instCount),
                         result.exitCode);
            std::fprintf(stderr, "CCRUN_JSON: %s\n",
                         statsJson("ccp", result, cpu.fetchStats())
                             .c_str());
        }
        return result.exitCode & 0xff;
    }
    if (tools::hasMagic(bytes, "CCIM")) {
        compress::CompressedImage image = loadImage(bytes);
        CompressedCpu cpu(image);
        ExecResult result = cpu.run(max_steps);
        std::fputs(result.output.c_str(), stdout);
        if (stats) {
            const FetchStats &fetch = cpu.fetchStats();
            std::fprintf(
                stderr,
                "ccrun: %llu instructions (%llu fetches, %llu "
                "codewords, %llu expanded), exit %d\n",
                static_cast<unsigned long long>(result.instCount),
                static_cast<unsigned long long>(fetch.itemFetches),
                static_cast<unsigned long long>(fetch.codewordFetches),
                static_cast<unsigned long long>(fetch.expandedInsts),
                result.exitCode);
            std::fprintf(stderr, "CCRUN_JSON: %s\n",
                         statsJson("cci", result, fetch).c_str());
        }
        return result.exitCode & 0xff;
    }
    std::fprintf(stderr, "ccrun: '%s' is neither .ccp nor .cci\n",
                 input.c_str());
    return tools::exitUserError;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("ccrun", [&] { return run(argc, argv); });
}
