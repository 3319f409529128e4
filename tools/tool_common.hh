/**
 * @file
 * Shared command-line scaffolding: every tool reports errors through
 * one documented exit-code contract so scripts and the test suite can
 * tell failure classes apart:
 *
 *   0  success
 *   1  user/input error: bad usage (an unknown flag, a missing value,
 *      a malformed or out-of-range number), unreadable files, malformed
 *      or corrupt input rejected at load
 *   2  verification finding: a lockstep divergence, an undetected
 *      injected fault, a corruption-hardening failure, or a machine
 *      check surfacing from simulated execution
 *   3  internal panic (a library invariant tripped -- a bug)
 *
 * ccrun is the documented exception: on a clean run it passes the
 * simulated program's own exit code through, so only its error paths
 * follow the table above.
 *
 * Every tool parses argv through one option table (Command), which
 * also generates the usage line.
 */

#ifndef CODECOMP_TOOLS_TOOL_COMMON_HH
#define CODECOMP_TOOLS_TOOL_COMMON_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "compress/codec.hh"
#include "decompress/fault.hh"
#include "support/logging.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"
#include "timing/timing.hh"

namespace codecomp::tools {

enum ExitCode : int {
    exitOk = 0,
    exitUserError = 1,
    exitFinding = 2,
    exitPanic = 3,
};

/** A command line or flag value the tool cannot accept: exit 1. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Run a tool body under the exit-code contract. Panics on the calling
 * thread are trapped (so a library bug exits 3 with a message instead
 * of aborting), machine checks exit 2, and load failures -- like any
 * other user-level error, UsageError included -- exit 1.
 */
template <typename Body>
int
runTool(const char *name, Body &&body)
{
    try {
        PanicTrap trap;
        return body();
    } catch (const MachineCheckError &error) {
        std::fprintf(stderr, "%s: %s\n", name, error.what());
        return exitFinding;
    } catch (const PanicError &error) {
        std::fprintf(stderr, "%s: %s\n", name, error.what());
        return exitPanic;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "%s: %s\n", name, error.what());
        return exitUserError;
    }
}

/**
 * @p text as a decimal integer in [@p min, @p max], or nullopt when it
 * is malformed ("8abc", "1e3", "", "+8", " 8", "-1" for an unsigned
 * @p T) or out of range. The whole string must be the number.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text, std::type_identity_t<T> min,
            std::type_identity_t<T> max)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < min || value > max)
        return std::nullopt;
    return value;
}

/** parseNumber, or a UsageError naming @p flag and the accepted range. */
template <typename T>
T
toNumber(const std::string &flag, std::string_view text,
         std::type_identity_t<T> min, std::type_identity_t<T> max)
{
    std::optional<T> value = parseNumber<T>(text, min, max);
    if (!value)
        throw UsageError(flag + " '" + std::string(text) +
                         "' is not a number in " + std::to_string(min) +
                         ".." + std::to_string(max));
    return *value;
}

/** The non-empty items of a comma list ("a,,b," -> {a, b}). */
inline std::vector<std::string>
splitList(std::string_view text)
{
    std::vector<std::string> items;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string_view::npos)
            comma = text.size();
        if (comma > start)
            items.emplace_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

/** "CAP:LINE:WAYS" (e.g. 2048:32:2) as a cache geometry, each field a
 *  whole unsigned number, or a UsageError naming @p flag. The
 *  geometry's validity is cache::cacheConfigError's business. */
inline cache::CacheConfig
parseCacheSpec(const std::string &flag, std::string_view spec)
{
    uint32_t fields[3] = {};
    std::string_view rest = spec;
    for (int i = 0; i < 3; ++i) {
        size_t end = i < 2 ? rest.find(':') : rest.size();
        std::optional<uint32_t> value =
            end == std::string_view::npos
                ? std::nullopt
                : parseNumber<uint32_t>(rest.substr(0, end), 0, UINT32_MAX);
        if (!value)
            throw UsageError(flag + " '" + std::string(spec) +
                             "' is not CAP:LINE:WAYS (e.g. 2048:32:2)");
        fields[i] = *value;
        rest.remove_prefix(i < 2 ? end + 1 : end);
    }
    return {fields[0], fields[1], fields[2]};
}

/** The registered scheme named @p name, or a UsageError listing them. */
inline compress::Scheme
parseScheme(std::string_view name)
{
    std::optional<compress::Scheme> scheme = compress::parseSchemeName(name);
    if (!scheme)
        throw UsageError("unknown scheme '" + std::string(name) +
                         "' (expected " + compress::schemeCliNames(", ") +
                         ")");
    return *scheme;
}

/** True when @p bytes start with the 4-byte file @p magic. */
inline bool
hasMagic(const std::vector<uint8_t> &bytes, const char *magic)
{
    return bytes.size() >= 4 && bytes[0] == magic[0] &&
           bytes[1] == magic[1] && bytes[2] == magic[2] &&
           bytes[3] == magic[3];
}

/**
 * One row of a tool's option table. @c metavar names the value in the
 * usage line; a row without one is a flag that takes no value. @c apply
 * receives the value (nullptr for a flag, or when an optional value is
 * absent) and throws UsageError when it cannot accept it. Rows apply in
 * argv order, so a repeated flag applies again: a plain field keeps the
 * last value, an accumulating handler keeps them all.
 */
struct Option
{
    std::string name;
    std::string metavar;
    std::function<void(const char *value)> apply;
    /** The value is taken only when the next argument does not start
     *  with '-' (ccdump --disasm [function]). */
    bool optionalValue = false;
};

using Options = std::vector<Option>;

/** The rows of several option groups, in order. */
inline Options
join(std::initializer_list<Options> groups)
{
    Options all;
    for (const Options &group : groups)
        all.insert(all.end(), group.begin(), group.end());
    return all;
}

/** A flag that sets @p field to @p value. */
inline Option
flag(std::string name, bool &field, bool value = true)
{
    return {std::move(name), "",
            [&field, value](const char *) { field = value; }};
}

/** A string value. */
inline Option
text(std::string name, std::string metavar, std::string &field)
{
    return {std::move(name), std::move(metavar),
            [&field](const char *value) { field = value; }};
}

/** A number in [@p min, @p max] (default: the field type's range). */
template <typename T>
Option
number(std::string name, T &field,
       std::type_identity_t<T> min = std::numeric_limits<T>::min(),
       std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    return {name, "N", [name, &field, min, max](const char *value) {
                field = toNumber<T>(name, value, min, max);
            }};
}

/** A number in [@p min, @p max], appended on every occurrence. */
template <typename T>
Option
number(std::string name, std::vector<T> &field,
       std::type_identity_t<T> min = std::numeric_limits<T>::min(),
       std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    return {name, "N", [name, &field, min, max](const char *value) {
                field.push_back(toNumber<T>(name, value, min, max));
            }};
}

/** A comma list (splitList); a repeated flag replaces the list. */
inline Option
list(std::string name, std::string metavar,
     std::vector<std::string> &field)
{
    return {std::move(name), std::move(metavar),
            [&field](const char *value) { field = splitList(value); }};
}

/** A cache geometry, CAP:LINE:WAYS. */
inline Option
geometry(std::string name, cache::CacheConfig &field)
{
    return {name, "CAP:LINE:WAYS", [name, &field](const char *value) {
                field = parseCacheSpec(name, value);
            }};
}

/**
 * --jobs N: the global pool's width, 1..256 (setGlobalJobs' cap). It
 * only records the width -- no pool exists until work is submitted --
 * so a later bad flag still exits before any thread starts.
 */
inline Option
jobsOption()
{
    return {"--jobs", "N", [](const char *value) {
                setGlobalJobs(toNumber<unsigned>("--jobs", value, 1, 256));
            }};
}

/** --isolate N: run jobs in N-wide forked workers (same range). */
inline Option
isolateOption(bool &isolate)
{
    return {"--isolate", "N", [&isolate](const char *value) {
                setGlobalJobs(
                    toNumber<unsigned>("--isolate", value, 1, 256));
                isolate = true;
            }};
}

/** --max-steps N: the retired-instruction budget of a run. */
inline Option
maxStepsOption(uint64_t &steps)
{
    return number("--max-steps", steps);
}

/** --no-cache / --cache-dir D: the farm's pipeline cache. */
inline Options
cacheOptions(bool &cache, std::string &dir)
{
    return {flag("--no-cache", cache, false), text("--cache-dir", "D", dir)};
}

/** The timing-model flags cctime and ccautotune share. Semantic checks
 *  stay with timing::timingConfigError. */
inline Options
timingOptions(timing::TimingConfig &model)
{
    return {number("--width", model.frontendWidth),
            number("--miss-penalty", model.missPenaltyCycles),
            number("--mem-cycles", model.memoryCyclesPerWord),
            number("--expand-cycles", model.expansionCyclesPerWord),
            number("--redirect-penalty", model.redirectPenaltyCycles),
            geometry("--l2", model.l2),
            number("--l2-hit", model.l2HitPenaltyCycles),
            number("--l2-cycles", model.l2CyclesPerWord)};
}

/**
 * A tool's command line: its option table plus the operands (the
 * arguments that are not flags) it takes.
 */
struct Command
{
    std::string tool;
    /** Operand synopsis for the usage line, e.g. "<prog.ccp>". */
    std::string operands;
    size_t minOperands = 0;
    size_t maxOperands = 0;
    Options options;

    /** "usage: tool <operands> [--flag N] ...", wrapped at 78 columns. */
    std::string
    usage() const
    {
        std::string out = "usage: " + tool;
        size_t lineStart = 0;
        auto add = [&](const std::string &word) {
            if (out.size() - lineStart + 1 + word.size() > 78) {
                lineStart = out.size() + 1;
                out += "\n      ";
            }
            out += " " + word;
        };
        if (!operands.empty())
            add(operands);
        for (const Option &option : options) {
            std::string value =
                option.optionalValue ? " [" + option.metavar + "]"
                : option.metavar.empty() ? ""
                                         : " " + option.metavar;
            add("[" + option.name + value + "]");
        }
        return out;
    }

    /** Throw @p message with the usage line as a UsageError. */
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw UsageError(message + "\n" + usage());
    }

    /**
     * Apply argv to the table and return the operands. An unknown flag,
     * a missing or malformed value, or an operand count outside
     * [minOperands, maxOperands] throws UsageError naming the problem.
     */
    std::vector<std::string>
    parse(int argc, char **argv) const
    {
        std::vector<std::string> found;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            const Option *option = nullptr;
            for (const Option &row : options)
                if (row.name == arg)
                    option = &row;
            if (!option) {
                if (arg.empty() || arg[0] == '-')
                    fail("unknown option '" + arg + "'");
                found.push_back(arg);
                continue;
            }
            const char *value = nullptr;
            bool hasNext = i + 1 < argc;
            if (option->optionalValue) {
                if (hasNext && argv[i + 1][0] != '-')
                    value = argv[++i];
            } else if (!option->metavar.empty()) {
                if (!hasNext)
                    fail(arg + " needs a value (" + option->metavar + ")");
                value = argv[++i];
            }
            try {
                option->apply(value);
            } catch (const UsageError &error) {
                fail(error.what());
            }
        }
        if (found.size() < minOperands)
            fail("missing " + operands);
        if (found.size() > maxOperands)
            fail("unexpected operand '" + found[maxOperands] + "'");
        return found;
    }
};

} // namespace codecomp::tools

#endif // CODECOMP_TOOLS_TOOL_COMMON_HH
