/**
 * @file
 * cclink -- the static linker: object modules (.cco) to an executable
 * program (.ccp). The runtime library is linked in automatically
 * unless --no-runtime is given.
 *
 *   cclink a.cco b.cco ... -o prog.ccp [--no-runtime]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "codegen/codegen.hh"
#include "compress/objfile.hh"
#include "link/linker.hh"
#include "support/serialize.hh"
#include "tool_common.hh"

using namespace codecomp;

namespace {

int
run(int argc, char **argv)
{
    std::string output;
    bool with_runtime = true;

    tools::Command command{
        "cclink", "<a.cco> [b.cco ...]", 1, SIZE_MAX,
        {tools::text("-o", "FILE", output),
         tools::flag("--no-runtime", with_runtime, false)}};
    std::vector<std::string> inputs = command.parse(argc, argv);
    if (output.empty())
        command.fail("missing -o FILE");

    std::vector<link::ObjectModule> modules;
    for (const std::string &path : inputs)
        modules.push_back(link::loadModule(readFile(path)));
    if (with_runtime)
        modules.push_back(codegen::runtimeModule());

    Program program = link::linkModules(modules);
    writeFile(output, saveProgram(program));
    std::printf("linked %zu module(s): %zu instructions (%u bytes "
                ".text), %zu bytes .data, %zu functions -> %s\n",
                modules.size(), program.text.size(),
                program.textBytes(), program.data.size(),
                program.functions.size(), output.c_str());
    return tools::exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    return tools::runTool("cclink", [&] { return run(argc, argv); });
}
