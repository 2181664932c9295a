/**
 * @file
 * Small synchronization primitives for the training-session scheduler:
 * one-shot latches, barrier-triggered sync points, and interval-union
 * activity trackers for the Figure 11 latency breakdown. A latch's
 * waiters are EventQueue::Callbacks, the simulator's one completion
 * type, so a DMA or collective completion moves into one unwrapped.
 */

#ifndef MCDLA_SYSTEM_LATCH_HH
#define MCDLA_SYSTEM_LATCH_HH

#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/units.hh"

namespace mcdla
{

/** A one-shot completion flag with waiter callbacks. */
class Latch
{
  public:
    bool done() const { return _done; }

    /** Mark complete and run all waiters. Panics on double completion. */
    void
    complete()
    {
        if (_done)
            panic("latch completed twice");
        _done = true;
        std::vector<EventQueue::Callback> waiters;
        waiters.swap(_waiters);
        for (auto &cb : waiters)
            cb();
    }

    /** Run @p cb when complete (immediately if already complete); a
        null @p cb runs nothing. */
    void
    whenDone(EventQueue::Callback cb)
    {
        if (!cb)
            return;
        if (_done)
            cb();
        else
            _waiters.push_back(std::move(cb));
    }

    /**
     * Rearm for reuse (latch pooling). Drops any unfired waiters —
     * callers reset only at epoch boundaries where simcheck has
     * already asserted quiescence. Keeps the waiter vector's capacity.
     */
    void
    reset()
    {
        _done = false;
        _waiters.clear();
    }

  private:
    bool _done = false;
    std::vector<EventQueue::Callback> _waiters;
};

/**
 * A device barrier that fires an action on the last arrival (used to
 * launch one global collective per synchronization point); completion is
 * observed through the embedded latch.
 */
class SyncPoint
{
  public:
    using Action = std::function<void(Latch &)>;

    /**
     * @param parties Number of devices that must arrive.
     * @param action Invoked once on the last arrival; must eventually
     *               complete the provided latch.
     */
    SyncPoint(int parties, Action action)
        : _remaining(parties), _action(std::move(action))
    {
        if (parties <= 0)
            panic("sync point requires at least one party");
    }

    /** Register one device's arrival. */
    void
    arrive()
    {
        if (_remaining == 0)
            panic("sync point arrival after trip");
        if (--_remaining == 0)
            _action(_latch);
    }

    Latch &latch() { return _latch; }

  private:
    int _remaining;
    Action _action;
    Latch _latch;
};

/**
 * Tracks the union of time intervals during which at least one activity
 * of a category (collective sync, vmem DMA) is in flight.
 */
class ActivityTracker
{
  public:
    void
    begin(Tick now)
    {
        if (_depth++ == 0)
            _start = now;
    }

    void
    end(Tick now)
    {
        if (_depth == 0)
            panic("activity tracker underflow");
        if (--_depth == 0)
            _total += now - _start;
    }

    /** Accumulated busy time (extends through an open interval). */
    Tick
    total(Tick now) const
    {
        return _depth > 0 ? _total + (now - _start) : _total;
    }

    void
    reset()
    {
        _depth = 0;
        _total = 0;
        _start = 0;
    }

  private:
    int _depth = 0;
    Tick _start = 0;
    Tick _total = 0;
};

} // namespace mcdla

#endif // MCDLA_SYSTEM_LATCH_HH
