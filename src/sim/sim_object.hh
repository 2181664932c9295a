/**
 * @file
 * Base class for simulated components.
 *
 * A SimObject has a hierarchical name and a reference to the EventQueue
 * that drives it. Components (channels, devices, engines) derive from
 * it. Each keeps its statistics as typed counters with accessors of its
 * own; core/report's dumpSystemStats() writes them as `--stats` text.
 */

#ifndef MCDLA_SIM_SIM_OBJECT_HH
#define MCDLA_SIM_SIM_OBJECT_HH

#include <string>

#include "event_queue.hh"
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
        : _eq(eq), _name(std::move(name))
    {}

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _eq; }
    const EventQueue &eventQueue() const { return _eq; }
    Tick now() const { return _eq.now(); }

  protected:
    ~SimObject() = default;

  private:
    EventQueue &_eq;
    std::string _name;
};

} // namespace mcdla

#endif // MCDLA_SIM_SIM_OBJECT_HH
