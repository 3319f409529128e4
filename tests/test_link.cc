/**
 * @file
 * Tests for separate compilation and the static linker: multi-module
 * symbol resolution, data rebasing, jump-table relocation across
 * modules, error paths, .cco round trips, and equivalence between
 * single-unit and multi-module builds.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "compress/compressor.hh"
#include "decompress/compressed_cpu.hh"
#include "decompress/cpu.hh"
#include "isa/builder.hh"
#include "link/linker.hh"
#include "workloads/workloads.hh"

using namespace codecomp;
using namespace codecomp::link;

namespace {

const char *mathModule = R"(
    int math_state = 100;
    int math_scale(int x) { return x * 3; }
    int math_accumulate(int x) {
        math_state = math_state + x;
        return math_state;
    }
)";

const char *appModule = R"(
    int app_log[4];
    int helper(int x) { return math_scale(x) + 1; }
    int main() {
        int i;
        for (i = 0; i < 4; i = i + 1)
            app_log[i] = helper(i);
        int total = 0;
        for (i = 0; i < 4; i = i + 1)
            total = total + app_log[i];
        return math_accumulate(total);
    }
)";

TEST(Linker, TwoModulesResolveAndRun)
{
    std::vector<ObjectModule> modules;
    modules.push_back(codegen::compileModule(appModule, "app"));
    modules.push_back(codegen::compileModule(mathModule, "math"));
    Program program = linkModules(modules);

    // helper(i) = 3i+1 for i=0..3 -> 1,4,7,10; total 22; state 122.
    EXPECT_EQ(runProgram(program).exitCode, 122);
    EXPECT_EQ(program.entryIndex, 0u);
    EXPECT_EQ(program.functions.front().name, "_start");
}

TEST(Linker, ModuleOrderDoesNotChangeBehaviour)
{
    std::vector<ObjectModule> ab;
    ab.push_back(codegen::compileModule(appModule, "app"));
    ab.push_back(codegen::compileModule(mathModule, "math"));
    std::vector<ObjectModule> ba;
    ba.push_back(codegen::compileModule(mathModule, "math"));
    ba.push_back(codegen::compileModule(appModule, "app"));
    EXPECT_EQ(runProgram(linkModules(ab)).exitCode,
              runProgram(linkModules(ba)).exitCode);
}

TEST(Linker, UnresolvedSymbolIsAnError)
{
    std::vector<ObjectModule> modules;
    modules.push_back(codegen::compileModule(
        "int main() { return ghost(1); }", "app"));
    EXPECT_THROW(linkModules(modules), std::runtime_error);
}

TEST(Linker, DuplicateSymbolIsAnError)
{
    std::vector<ObjectModule> modules;
    modules.push_back(
        codegen::compileModule("int f() { return 1; }", "a"));
    modules.push_back(codegen::compileModule(
        "int f() { return 2; } int main() { return f(); }", "b"));
    EXPECT_THROW(linkModules(modules), std::runtime_error);
}

TEST(Linker, MissingMainIsAnError)
{
    std::vector<ObjectModule> modules;
    modules.push_back(
        codegen::compileModule("int f() { return 1; }", "a"));
    EXPECT_THROW(linkModules(modules), std::runtime_error);
}

TEST(Linker, ModulePrivateGlobalsDoNotCollide)
{
    // Both modules define a global named `counter`; each sees its own.
    std::vector<ObjectModule> modules;
    modules.push_back(codegen::compileModule(R"(
        int counter = 10;
        int bump_a() { counter = counter + 1; return counter; }
    )", "a"));
    modules.push_back(codegen::compileModule(R"(
        int counter = 20;
        int bump_b() { counter = counter + 1; return counter; }
        int main() { return bump_a() * 100 + bump_b(); }
    )", "b"));
    EXPECT_EQ(runProgram(linkModules(modules)).exitCode, 1121);
}

TEST(Linker, JumpTablesRelocateAcrossModules)
{
    // The switch (jump table) lives in the second module, whose text
    // and data are both rebased by the first module's sizes.
    std::vector<ObjectModule> modules;
    modules.push_back(codegen::compileModule(R"(
        int pad0(int x) { return x + 1; }
        int pad1(int x) { return x + 2; }
        int pad2(int x) { return pad0(x) + pad1(x); }
    )", "padding"));
    modules.push_back(codegen::compileModule(R"(
        int pick(int x) {
            switch (x) {
              case 0: return 10;
              case 1: return 11;
              case 2: return 12;
              case 3: return 13;
              case 4: return 14;
              default: return -1;
            }
        }
        int main() {
            return pick(0) + pick(2) + pick(4) + pick(7) + pad2(0);
        }
    )", "app"));
    Program program = linkModules(modules);
    EXPECT_FALSE(program.codeRelocs.empty());
    EXPECT_EQ(runProgram(program).exitCode, 10 + 12 + 14 - 1 + 3);
}

TEST(Linker, SingleUnitAndMultiModuleBuildsBehaveIdentically)
{
    // The li benchmark compiled the normal way (app + runtime linked)
    // vs. explicitly compiled as two modules.
    std::string source = workloads::benchmarkSource("li");
    Program normal = codegen::compile(source);

    std::vector<ObjectModule> modules;
    codegen::CompileOptions options;
    modules.push_back(codegen::compileModule(source, "li"));
    modules.push_back(codegen::runtimeModule());
    Program manual = linkModules(modules);

    EXPECT_EQ(normal.text, manual.text);
    EXPECT_EQ(normal.data, manual.data);
    EXPECT_EQ(runProgram(normal), runProgram(manual));
}

TEST(Linker, LinkedProgramsCompressAndExecute)
{
    std::vector<ObjectModule> modules;
    modules.push_back(codegen::compileModule(appModule, "app"));
    modules.push_back(codegen::compileModule(mathModule, "math"));
    Program program = linkModules(modules);
    ExecResult reference = runProgram(program);

    compress::CompressorConfig config;
    config.scheme = compress::Scheme::Nibble;
    compress::CompressedImage image =
        compress::compressProgram(program, config);
    EXPECT_EQ(runCompressed(image).exitCode, reference.exitCode);
}

TEST(Linker, ProgramBeyondTheAddressSpaceIsAUserError)
{
    // 12 MB of .data cannot fit the 8 MiB address space: a fatal user
    // error (tool exit 1), not Program::finalize's panic (exit 3).
    std::vector<ObjectModule> modules = {codegen::compileModule(
        "int big[3000000]; int main() { return big[5]; }", "big")};
    PanicTrap trap;
    try {
        linkModules(modules);
        FAIL() << "linked a program larger than the address space";
    } catch (const PanicError &error) {
        FAIL() << "panicked: " << error.what();
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("does not fit"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ObjectFile, ModuleRoundTrip)
{
    ObjectModule module = codegen::compileModule(appModule, "app");
    ObjectModule loaded = loadModule(saveModule(module));
    EXPECT_EQ(loaded.name, module.name);
    EXPECT_EQ(loaded.text, module.text);
    EXPECT_EQ(loaded.data, module.data);
    ASSERT_EQ(loaded.calls.size(), module.calls.size());
    for (size_t i = 0; i < loaded.calls.size(); ++i) {
        EXPECT_EQ(loaded.calls[i].textIndex, module.calls[i].textIndex);
        EXPECT_EQ(loaded.calls[i].callee, module.calls[i].callee);
    }
    EXPECT_EQ(loaded.dataRefs.size(), module.dataRefs.size());
    EXPECT_EQ(loaded.tables.size(), module.tables.size());
    EXPECT_EQ(loaded.functions.size(), module.functions.size());

    // Linking the round-tripped module behaves identically.
    std::vector<ObjectModule> a = {module,
                                   codegen::compileModule(mathModule,
                                                          "math")};
    std::vector<ObjectModule> b = {loaded, a[1]};
    EXPECT_EQ(runProgram(linkModules(a)), runProgram(linkModules(b)));
}

TEST(ObjectFile, RejectsWrongMagic)
{
    ObjectModule module = codegen::compileModule(mathModule, "math");
    std::vector<uint8_t> bytes = saveModule(module);
    bytes[3] ^= 0xff;
    EXPECT_THROW(loadModule(bytes), std::runtime_error);
}

TEST(ObjectFile, EveryWorkloadModuleLoadsAndLinksUnchanged)
{
    // The loader's checks accept everything codegen emits: each
    // workload module and the runtime survive a .cco round trip, and
    // link to the program built from the in-memory modules.
    for (const std::string &name : workloads::benchmarkNames()) {
        std::vector<ObjectModule> built = {
            codegen::compileModule(workloads::benchmarkSource(name), name),
            codegen::runtimeModule()};
        std::vector<ObjectModule> loaded;
        for (const ObjectModule &module : built) {
            Result<ObjectModule> result = tryLoadModule(saveModule(module));
            ASSERT_TRUE(result.ok())
                << name << ": " << result.error().message();
            loaded.push_back(result.take());
        }
        Program a = linkModules(built);
        Program b = linkModules(loaded);
        EXPECT_EQ(a.text, b.text) << name;
        EXPECT_EQ(a.data, b.data) << name;
    }
}

/** tryLoadModule's verdict on @p module, saved with an honest
 *  checksum; expects a BadValue and returns its detail. */
std::string
badValueDetail(const ObjectModule &module)
{
    Result<ObjectModule> result = tryLoadModule(saveModule(module));
    if (result.ok())
        return "accepted";
    EXPECT_EQ(result.error().status, LoadStatus::BadValue)
        << result.error().message();
    return result.error().detail;
}

TEST(ObjectFile, CallRelocationPastTextIsRejected)
{
    // The linker patches text_base + textIndex: one past the module's
    // .text used to write outside the linked program.
    ObjectModule module = codegen::compileModule(appModule, "app");
    ASSERT_FALSE(module.calls.empty());
    module.calls[0].textIndex = static_cast<uint32_t>(module.text.size());
    EXPECT_EQ(badValueDetail(module),
              "call relocation outside .text at " +
                  std::to_string(module.text.size()));
}

TEST(ObjectFile, RelocationsAndRangesOutsideTheirSectionsAreRejected)
{
    const ObjectModule good = codegen::compileModule(appModule, "app");
    ASSERT_TRUE(tryLoadModule(saveModule(good)).ok());
    ASSERT_FALSE(good.dataRefs.empty());
    ASSERT_FALSE(good.functions.empty());
    uint32_t text_size = static_cast<uint32_t>(good.text.size());
    uint32_t data_size = static_cast<uint32_t>(good.data.size());

    ObjectModule m = good;
    m.dataRefs[0].textIndex = text_size;
    EXPECT_NE(badValueDetail(m).find("data relocation outside .text"),
              std::string::npos);

    m = good;
    m.dataRefs[0].dataOffset = data_size;
    EXPECT_NE(badValueDetail(m).find("data relocation outside .data"),
              std::string::npos);

    // A table word needs 4 bytes: its slot may not start in the last 3.
    m = good;
    m.tables.push_back({data_size - 3, 0});
    EXPECT_NE(badValueDetail(m).find("table relocation outside .data"),
              std::string::npos);
    m = good;
    m.tables.push_back({0, text_size});
    EXPECT_NE(badValueDetail(m).find("table relocation target"),
              std::string::npos);

    m = good;
    m.functions[0].body.count = text_size + 1 - m.functions[0].body.first;
    EXPECT_NE(badValueDetail(m).find("outside .text"), std::string::npos);

    m = good;
    m.functions.push_back({"empty", {text_size, 0}, {}, {}});
    EXPECT_NE(badValueDetail(m).find("has no entry"), std::string::npos);

    m = good;
    m.functions[0].prologue = {m.functions[0].body.first +
                                   m.functions[0].body.count,
                               1};
    EXPECT_NE(badValueDetail(m).find("prologue outside"),
              std::string::npos);

    m = good;
    m.functions[0].epilogues.push_back({text_size, 1});
    EXPECT_NE(badValueDetail(m).find("epilogue outside"),
              std::string::npos);

    // Relocation sites of the wrong kind would trip the encoder's
    // field-range checks when the linker patches them.
    m = good;
    m.calls[0].textIndex = m.dataRefs[0].textIndex;
    EXPECT_NE(badValueDetail(m).find("not on a bl"), std::string::npos);
    m = good;
    m.dataRefs[0].textIndex = m.calls[0].textIndex;
    EXPECT_NE(badValueDetail(m).find("not on a signed immediate"),
              std::string::npos);

    m = good;
    m.text[0] = 0; // primary opcode 0: illegal
    EXPECT_NE(badValueDetail(m).find("illegal instruction"),
              std::string::npos);
}

TEST(ObjectFile, LyingCountIsRejectedBeforeAllocating)
{
    // Re-seal a payload whose instruction count claims far more words
    // than the payload holds: a clean BadValue, no reserve of 16 GiB.
    ObjectModule module = codegen::compileModule(mathModule, "math");
    std::vector<uint8_t> payload =
        openEnvelope(saveModule(module), 0x4343434f, 2, ".cco module")
            .valueOrThrow();
    size_t count_at = 4 + module.name.size();
    for (size_t i = 0; i < 4; ++i)
        payload[count_at + i] = 0xff;
    Result<ObjectModule> result =
        tryLoadModule(sealEnvelope(0x4343434f, 2, payload));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().status, LoadStatus::BadValue);
    EXPECT_NE(result.error().detail.find("instructions exceed"),
              std::string::npos);
}

TEST(ObjectFile, SealedModuleBranchingOutsideItselfIsALoadError)
{
    // A checksum-valid module whose branch leaves it would link into a
    // program Program::finalize panics on; it must fail at load, as a
    // user error (cclink exit 1), not as a linker panic (exit 3).
    ObjectModule module = codegen::compileModule(mathModule, "math");
    module.text[0] = isa::encode(
        isa::b(static_cast<int32_t>(module.text.size()) + 5));
    std::vector<uint8_t> bytes = saveModule(module);
    EXPECT_EQ(badValueDetail(module), "branch leaving the module at 0");
    try {
        loadModule(bytes);
        FAIL() << "loadModule accepted a branch out of the module";
    } catch (const LoadFailure &failure) {
        EXPECT_EQ(failure.error().status, LoadStatus::BadValue);
    }
}

} // namespace
