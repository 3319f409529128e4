/**
 * @file
 * minicc -- compile MiniC source (or generate a suite benchmark) into
 * a linked .ccp program file.
 *
 *   minicc input.mc -o prog.ccp [--standard-frames] [--no-runtime]
 *   minicc --benchmark gcc -o gcc.ccp [--scale N]
 */

#include <cstdio>
#include <string>

#include "codegen/codegen.hh"
#include "compress/objfile.hh"
#include "link/object.hh"
#include "support/serialize.hh"
#include "tool_common.hh"
#include "workloads/workloads.hh"

using namespace codecomp;

namespace {

int
run(int argc, char **argv)
{
    std::string benchmark;
    std::string output;
    int scale = 1;
    bool compile_only = false;
    codegen::CompileOptions options;

    tools::Command command{
        "minicc", "<input.mc>", 0, 1,
        {tools::text("-o", "FILE", output),
         tools::text("--benchmark", "NAME", benchmark),
         tools::number("--scale", scale, 1),
         tools::flag("-c", compile_only),
         tools::flag("--standard-frames", options.standardizedFrames),
         tools::flag("--no-runtime", options.includeRuntime, false)}};
    std::vector<std::string> inputs = command.parse(argc, argv);
    if (output.empty() || inputs.empty() == benchmark.empty())
        command.fail("give -o FILE and either <input.mc> or --benchmark NAME");
    std::string input = inputs.empty() ? "" : inputs[0];

    std::string source;
    if (!benchmark.empty()) {
        source = workloads::benchmarkSource(benchmark, scale);
    } else {
        std::vector<uint8_t> bytes = readFile(input);
        source.assign(bytes.begin(), bytes.end());
    }
    std::string label = benchmark.empty() ? input : benchmark;
    if (compile_only) {
        link::ObjectModule module =
            codegen::compileModule(source, label, options);
        writeFile(output, link::saveModule(module));
        std::printf("%s: %zu instructions, %zu bytes .data, %zu "
                    "functions, %zu calls to resolve -> %s\n",
                    label.c_str(), module.text.size(),
                    module.data.size(), module.functions.size(),
                    module.calls.size(), output.c_str());
    } else {
        Program program = codegen::compile(source, options);
        writeFile(output, saveProgram(program));
        std::printf("%s: %zu instructions (%u bytes .text), %zu bytes "
                    ".data, %zu functions -> %s\n",
                    label.c_str(), program.text.size(),
                    program.textBytes(), program.data.size(),
                    program.functions.size(), output.c_str());
    }
    return tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("minicc", [&] { return run(argc, argv); });
}
