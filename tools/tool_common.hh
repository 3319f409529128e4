/**
 * @file
 * Shared command-line scaffolding: every tool reports errors through
 * one documented exit-code contract so scripts and the test suite can
 * tell failure classes apart:
 *
 *   0  success
 *   1  user/input error: bad usage, unreadable files, malformed or
 *      corrupt input rejected at load
 *   2  verification finding: a lockstep divergence, an undetected
 *      injected fault, a corruption-hardening failure, or a machine
 *      check surfacing from simulated execution
 *   3  internal panic (a library invariant tripped -- a bug)
 *
 * ccrun is the documented exception: on a clean run it passes the
 * simulated program's own exit code through, so only its error paths
 * follow the table above.
 */

#ifndef CODECOMP_TOOLS_TOOL_COMMON_HH
#define CODECOMP_TOOLS_TOOL_COMMON_HH

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>

#include "decompress/fault.hh"
#include "support/logging.hh"
#include "support/serialize.hh"

namespace codecomp::tools {

enum ExitCode : int {
    exitOk = 0,
    exitUserError = 1,
    exitFinding = 2,
    exitPanic = 3,
};

/**
 * Run a tool body under the exit-code contract. Panics on the calling
 * thread are trapped (so a library bug exits 3 with a message instead
 * of aborting), machine checks exit 2, and load failures -- like any
 * other user-level error -- exit 1.
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
 * is malformed ("8abc", "1e3", "", "+8") or out of range. The whole
 * string must be the number.
 */
inline std::optional<long>
parseLongArg(const char *text, long min, long max)
{
    long value = 0;
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < min || value > max)
        return std::nullopt;
    return value;
}

} // namespace codecomp::tools

#endif // CODECOMP_TOOLS_TOOL_COMMON_HH
