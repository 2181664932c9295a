/**
 * @file
 * Base class for simulated components.
 *
 * A SimObject has a hierarchical name, a reference to the EventQueue that
 * drives it, and an owned StatSet. Components (channels, devices, memory
 * nodes, engines) derive from it so experiments can enumerate and dump
 * per-component statistics uniformly.
 */

#ifndef MCDLA_SIM_SIM_OBJECT_HH
#define MCDLA_SIM_SIM_OBJECT_HH

#include <string>

#include "event_queue.hh"
#include "stats.hh"
#include "units.hh"

namespace mcdla
{

/** Base class for every named simulation component. */
class SimObject
{
  public:
    /**
     * @param eq The event queue driving this component.
     * @param name Hierarchical instance name (e.g. "system.dev0.hbm").
     */
    SimObject(EventQueue &eq, std::string name)
        : _eq(eq), _name(std::move(name)), _stats(_name + ".")
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _eq; }
    const EventQueue &eventQueue() const { return _eq; }
    Tick now() const { return _eq.now(); }

    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

    /** Hook invoked by owners when a simulation run starts. */
    virtual void startup() {}

    /** Reset component statistics (not structural state). */
    virtual void resetStats() { _stats.reset(); }

  private:
    EventQueue &_eq;
    std::string _name;
    StatSet _stats;
};

} // namespace mcdla

#endif // MCDLA_SIM_SIM_OBJECT_HH
