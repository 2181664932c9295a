/**
 * @file
 * SimCheck: the simulation invariant checker.
 *
 * A thin engine behind the conservation-law hooks spread across the
 * stack: EventQueue time monotonicity, Channel byte conservation,
 * MemoryPoolAllocator free-list integrity, PageTable frame accounting,
 * FaultHandler DMA quiescence, and serving request accounting. The
 * hooks are compiled unconditionally and cost one predictable branch
 * while the engine is off; configuring with -DMCDLA_SIMCHECK=ON flips
 * the default of the runtime toggle so a whole build — every bench,
 * test, and the driver — runs checked. Individual runs can opt in via
 * mcdla_sim --simcheck or simcheck::setEnabled().
 *
 * A violation is a simulator bug by definition, so fail() routes
 * through panic(): it aborts with a diagnostic naming the subsystem
 * and the simulated tick ("SimCheck[channel] @ tick 1234: ..."), or
 * throws PanicError under LogConfig::throwOnError so tests can inject
 * violations and assert on the label.
 *
 * This is the safety net the ROADMAP's parallel-DES item requires:
 * the checks prove the accounting the paper's figures rest on holds
 * before and after any event-loop surgery.
 */

#ifndef MCDLA_SIM_SIMCHECK_HH
#define MCDLA_SIM_SIMCHECK_HH

#include <cstdint>

#include "units.hh"

namespace mcdla
{
namespace simcheck
{

namespace detail
{
/** The runtime toggle; read through enabled(), set by setEnabled(). */
extern bool g_enabled;
} // namespace detail

/** Whether the invariant engine is active. Inline: the hooks read it
    on every event and transfer. */
inline bool
enabled()
{
    return detail::g_enabled;
}

/** Flip the engine at runtime (before a run starts, not during). */
void setEnabled(bool on);

/**
 * Violations reported so far. Only observable under
 * LogConfig::throwOnError — without it the first fail() aborts.
 */
std::uint64_t violationCount();

/**
 * Report an invariant violation at a simulated tick. Panics with a
 * "SimCheck[subsystem] @ tick N" diagnostic.
 */
[[noreturn]] void fail(const char *subsystem, Tick tick,
                       const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Report a violation of a component with no tick context. */
[[noreturn]] void failUntimed(const char *subsystem, const char *fmt,
                              ...)
    __attribute__((format(printf, 2, 3)));

} // namespace simcheck
} // namespace mcdla

#endif // MCDLA_SIM_SIMCHECK_HH
