#include "support/logging.hh"

#include <stdexcept>

namespace codecomp {

namespace {

thread_local bool panic_trap_active = false;

} // namespace

PanicTrap::PanicTrap() : prev_(panic_trap_active)
{
    panic_trap_active = true;
}

PanicTrap::~PanicTrap()
{
    panic_trap_active = prev_;
}

namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (panic_trap_active)
        throw PanicError(std::string("panic: ") + msg + " (" + file + ":" +
                         std::to_string(line) + ")");
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const std::string &msg)
{
    // Throw rather than exit(1) so that library users (and the test
    // suite) can observe user-level errors without losing the process.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace codecomp
