/**
 * @file
 * SimCheck engine implementation.
 */

#include "sim/simcheck.hh"

#include <cstdarg>
#include <cstdio>
#include <string>

#include "sim/logging.hh"

namespace mcdla
{
namespace simcheck
{

// The CMake option only moves the default; tests and --simcheck flip
// the toggle at runtime. Set before a run starts — sweeps read it
// concurrently from worker threads.
#ifdef MCDLA_SIMCHECK
bool detail::g_enabled = true;
#else
bool detail::g_enabled = false;
#endif

namespace
{

std::uint64_t g_violations = 0;

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list copy;
    va_copy(copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string msg(len > 0 ? static_cast<std::size_t>(len) : 0, '\0');
    if (len > 0)
        std::vsnprintf(msg.data(), msg.size() + 1, fmt, args);
    return msg;
}

} // anonymous namespace

void
setEnabled(bool on)
{
    detail::g_enabled = on;
}

std::uint64_t
violationCount()
{
    return g_violations;
}

void
fail(const char *subsystem, Tick tick, const char *fmt, ...)
{
    ++g_violations;
    std::va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    panic("SimCheck[%s] @ tick %llu: %s", subsystem,
          static_cast<unsigned long long>(tick), msg.c_str());
}

void
failUntimed(const char *subsystem, const char *fmt, ...)
{
    ++g_violations;
    std::va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    panic("SimCheck[%s]: %s", subsystem, msg.c_str());
}

} // namespace simcheck
} // namespace mcdla
