/**
 * @file
 * The tools' declarative option table (tools/tool_common.hh): whole-
 * string range-checked numbers, missing values, repeated and
 * accumulating flags, comma lists, cache geometries, unknown flags and
 * operand counts. Every rejection is a UsageError that names the flag.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tool_common.hh"

using namespace codecomp;
using namespace codecomp::tools;

namespace {

/** Parse @p args (argv[0] supplied) against @p command. */
std::vector<std::string>
parse(const Command &command, std::vector<std::string> args)
{
    args.insert(args.begin(), command.tool);
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return command.parse(static_cast<int>(argv.size()), argv.data());
}

/** The UsageError message of parsing @p args, or "" if it parsed. */
std::string
rejection(const Command &command, std::vector<std::string> args)
{
    try {
        parse(command, std::move(args));
    } catch (const UsageError &error) {
        return error.what();
    }
    return "";
}

TEST(ToolOptions, MalformedNumbersAreRejectedWithFlagAndRange)
{
    uint32_t width = 7;
    Command command{"tool", "", 0, 0,
                    {number("--width", width, 1, 64)}};
    for (const char *bad : {"8abc", "1e3", "", "+8", " 8", "8 ", "-1",
                            "0", "65", "0x10",
                            "99999999999999999999"}) {
        std::string message = rejection(command, {"--width", bad});
        EXPECT_NE(message.find("--width '" + std::string(bad) +
                               "' is not a number in 1..64"),
                  std::string::npos)
            << "value '" << bad << "': " << message;
        EXPECT_NE(message.find("usage: tool [--width N]"),
                  std::string::npos);
    }
    EXPECT_EQ(width, 7u);
    parse(command, {"--width", "64"});
    EXPECT_EQ(width, 64u);
}

TEST(ToolOptions, UnsignedFieldsRejectNegativesAndOverflow)
{
    uint64_t steps = 5;
    Command command{"tool", "", 0, 0, {maxStepsOption(steps)}};
    for (const char *bad : {"-1", "-5", "18446744073709551616",
                            "99999999999999999999"})
        EXPECT_NE(rejection(command, {"--max-steps", bad})
                      .find("0..18446744073709551615"),
                  std::string::npos)
            << bad;
    EXPECT_EQ(steps, 5u);
}

TEST(ToolOptions, SeedTakesTheFullU64Range)
{
    uint64_t seed = 1;
    Command command{"tool", "", 0, 0, {number("--seed", seed)}};
    parse(command, {"--seed", "0"});
    EXPECT_EQ(seed, 0u);
    parse(command, {"--seed", "18446744073709551615"});
    EXPECT_EQ(seed, UINT64_MAX);
    EXPECT_NE(rejection(command, {"--seed", "abc"}).find("--seed"),
              std::string::npos);
}

TEST(ToolOptions, SignedFieldsKeepTheirRange)
{
    int scale = 1;
    Command command{"tool", "", 0, 0, {number("--scale", scale, 1)}};
    parse(command, {"--scale", "8"});
    EXPECT_EQ(scale, 8);
    EXPECT_NE(rejection(command, {"--scale", "-1"})
                  .find("--scale '-1' is not a number in 1..2147483647"),
              std::string::npos);
    EXPECT_NE(rejection(command, {"--scale", "2147483648"}).find("--scale"),
              std::string::npos);
}

TEST(ToolOptions, MissingValueAtTheEndOfArgv)
{
    uint64_t seed = 1;
    Command command{"tool", "", 0, 0, {number("--seed", seed)}};
    EXPECT_NE(rejection(command, {"--seed"})
                  .find("--seed needs a value (N)"),
              std::string::npos);
}

TEST(ToolOptions, RepeatedFlagKeepsTheLastValue)
{
    uint64_t seed = 1;
    std::string path;
    Command command{"tool", "", 0, 0,
                    {number("--seed", seed), text("--json", "FILE", path)}};
    parse(command, {"--seed", "3", "--json", "a", "--seed", "9", "--json",
                    "b"});
    EXPECT_EQ(seed, 9u);
    EXPECT_EQ(path, "b");
}

TEST(ToolOptions, BudgetAccumulates)
{
    std::vector<uint64_t> budgets;
    Command command{"tool", "", 0, 0, {number("--budget", budgets, 1)}};
    parse(command, {"--budget", "2048", "--budget", "8192"});
    EXPECT_EQ(budgets, (std::vector<uint64_t>{2048, 8192}));
    EXPECT_NE(rejection(command, {"--budget", "0"}).find("1.."),
              std::string::npos);
}

TEST(ToolOptions, ListsSkipEmptyItemsAndARepeatReplaces)
{
    std::vector<std::string> names;
    Command command{"tool", "", 0, 0, {list("--workloads", "a,b", names)}};
    parse(command, {"--workloads", ",gcc,,li,"});
    EXPECT_EQ(names, (std::vector<std::string>{"gcc", "li"}));
    parse(command, {"--workloads", "li", "--workloads", "go"});
    EXPECT_EQ(names, (std::vector<std::string>{"go"}));
    parse(command, {"--workloads", ",,"});
    EXPECT_TRUE(names.empty());
}

TEST(ToolOptions, CacheGeometries)
{
    cache::CacheConfig icache;
    Command command{"tool", "", 0, 0, {geometry("--icache", icache)}};
    parse(command, {"--icache", "2048:32:2"});
    EXPECT_EQ(icache.capacityBytes, 2048u);
    EXPECT_EQ(icache.lineBytes, 32u);
    EXPECT_EQ(icache.ways, 2u);
    for (const char *bad : {"-1:32:2", "2048:32:2x", "2048:32", "2048:32:2:",
                            "2048::2", ":32:2", "2048:32:-2", " 2048:32:2",
                            "4294967296:32:1", ""}) {
        EXPECT_NE(rejection(command, {"--icache", bad})
                      .find("--icache '" + std::string(bad) +
                            "' is not CAP:LINE:WAYS"),
                  std::string::npos)
            << bad;
    }
    EXPECT_EQ(icache.capacityBytes, 2048u);
}

TEST(ToolOptions, UnknownFlagAndOperandCounts)
{
    bool stats = false;
    Command command{"tool", "<in>", 1, 1, {flag("--stats", stats)}};
    EXPECT_NE(rejection(command, {"in", "--bogus"})
                  .find("unknown option '--bogus'"),
              std::string::npos);
    EXPECT_NE(rejection(command, {"in", "-"}).find("unknown option '-'"),
              std::string::npos);
    EXPECT_NE(rejection(command, {"in", ""}).find("unknown option ''"),
              std::string::npos);
    EXPECT_NE(rejection(command, {"--stats"}).find("missing <in>"),
              std::string::npos);
    EXPECT_NE(rejection(command, {"a", "b"}).find("unexpected operand 'b'"),
              std::string::npos);
    EXPECT_EQ(parse(command, {"--stats", "a"}),
              (std::vector<std::string>{"a"}));
    EXPECT_TRUE(stats);
}

TEST(ToolOptions, OptionalValueTakesOnlyANonFlag)
{
    std::string function = "unset";
    bool dict = false;
    Command command{
        "tool", "<in>", 1, 1,
        {{.name = "--disasm",
          .metavar = "function",
          .apply = [&](const char *name) { function = name ? name : ""; },
          .optionalValue = true},
         flag("--dict", dict)}};
    parse(command, {"in", "--disasm", "main"});
    EXPECT_EQ(function, "main");
    parse(command, {"in", "--disasm", "--dict"});
    EXPECT_EQ(function, "");
    EXPECT_TRUE(dict);
    parse(command, {"in", "--disasm"});
    EXPECT_EQ(function, "");
}

TEST(ToolOptions, JobsRangeIsCheckedWithoutStartingAPool)
{
    // Only rejections: an accepted value would resize the process-wide
    // pool the rest of the suite shares.
    Command command{"tool", "", 0, 0, {jobsOption()}};
    for (const char *bad : {"0", "257", "2x", "-1", "1e3", ""})
        EXPECT_NE(rejection(command, {"--jobs", bad})
                      .find("--jobs '" + std::string(bad) +
                            "' is not a number in 1..256"),
                  std::string::npos)
            << bad;
    bool isolate = false;
    Command isolated{"tool", "", 0, 0, {isolateOption(isolate)}};
    EXPECT_NE(rejection(isolated, {"--isolate", "0"}).find("1..256"),
              std::string::npos);
    EXPECT_FALSE(isolate);
}

TEST(ToolOptions, UsageLineComesFromTheTable)
{
    timing::TimingConfig model;
    bool frontier = false;
    Command command{"tool", "<a> <b>", 2, 2,
                    join({timingOptions(model),
                          {flag("--frontier", frontier)}})};
    std::string usage = command.usage();
    EXPECT_EQ(usage.rfind("usage: tool <a> <b> [--width N]", 0), 0u)
        << usage;
    for (const char *row : {"[--miss-penalty N]", "[--l2 CAP:LINE:WAYS]",
                            "[--l2-cycles N]", "[--frontier]"})
        EXPECT_NE(usage.find(row), std::string::npos) << row;
    size_t start = 0;
    while (start < usage.size()) {
        size_t end = std::min(usage.find('\n', start), usage.size());
        EXPECT_LE(end - start, 78u);
        start = end + 1;
    }
}

TEST(ToolOptions, UnknownSchemeNamesTheRegistry)
{
    try {
        parseScheme("bogus");
        FAIL() << "accepted an unknown scheme";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find(
                      "unknown scheme 'bogus' (expected " +
                      compress::schemeCliNames(", ") + ")"),
                  std::string::npos);
    }
    EXPECT_EQ(parseScheme("nibble"), compress::Scheme::Nibble);
}

} // namespace
