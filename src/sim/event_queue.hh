/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives one simulated system. Events are arbitrary
 * callbacks scheduled at absolute ticks; same-tick events fire in FIFO
 * scheduling order, which keeps component behaviour deterministic without
 * requiring explicit priorities.
 *
 * The hot path is allocation-free: event payloads (an SBO callback, a
 * lazy label, flags) live in a free-list slot pool, the priority
 * structure orders POD (when, seq, slot) keys (see
 * event_queue_backend.hh for the heap and calendar backends; the
 * default radix heap is a member called directly, not through the
 * backend interface), and
 * cancellation is a tombstone flag in the slot — no per-event heap
 * traffic, no hash-set side-tables. A callback runs where it sits in
 * its slot (slots never move); the slot's generation is bumped before
 * the call, so a stale EventId (already executing, executed or
 * cancelled) fails a generation check and deschedule() correctly
 * refuses it, and the slot is recycled once the call returns.
 *
 * The busiest components skip the payload altogether. An EventOwner
 * (every Channel) registers once and schedules *owned* events: the
 * key's slot field carries a tag bit, the owner's index and an event
 * kind, and dispatch is one virtual call on the owner — no slot, no
 * callback or label move, no generation bump. An owned key takes the
 * next seq like any other, so the (when, seq) stream, and with it
 * every result and audit hash, is the one a callback would give.
 *
 * A component may also decide later whether an event is needed at
 * all. It reserves the seq the event would have taken (reserveSeq())
 * and, if the event turns out to have an effect at its instant,
 * schedules it at exactly that (tick, seq) (scheduleOwnedAt(),
 * scheduleAt()). Otherwise the seq simply goes unused. Either way
 * every other event keeps its key. Channels use this for deliveries
 * that would only join a busy FIFO (channel.hh).
 *
 * The kernel is deliberately minimal: the heavy lifting (bandwidth
 * channels, compute streams, collectives) is built on top of it in the
 * interconnect/device/system libraries.
 */

#ifndef MCDLA_SIM_EVENT_QUEUE_HH
#define MCDLA_SIM_EVENT_QUEUE_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event_label.hh"
#include "event_queue_backend.hh"
#include "inline_function.hh"
#include "units.hh"

namespace mcdla
{

class CausalRecorder;
class DesProfiler;
class TraceSink;

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 * Encodes (generation << 32 | slot); generations start at 1, so no
 * valid handle is ever 0 and handles of retired slots go stale
 * instead of aliasing their successors.
 */
using EventId = std::uint64_t;

/** Sentinel returned for invalid events. */
constexpr EventId invalidEventId = 0;

/**
 * A component whose events the queue runs by key rather than by stored
 * callback (EventQueue::scheduleOwned()). Owned events carry no
 * payload: the owner keeps whatever state an event needs and is told
 * only which of its kinds fired. An owner must outlive its pending
 * events.
 */
class EventOwner
{
  public:
    /** Run the owned event of @p kind (< EventQueue::kOwnedKinds). */
    virtual void fireOwnedEvent(unsigned kind) = 0;

    /** Append the label of the @p kind event with seq @p seq
        ("<name>.<event>") to @p out: for the profiler, the causal
        recorder and warnings, never on the unobserved path. */
    virtual void appendOwnedLabel(unsigned kind, std::uint64_t seq,
                                  std::string &out) const = 0;

  protected:
    ~EventOwner() = default;
};

/**
 * The central event queue of a simulation instance.
 *
 * Typical usage:
 * @code
 *   EventQueue eq;
 *   eq.schedule(eq.now() + 100, [&]{ ... });
 *   eq.run();
 * @endcode
 */
class EventQueue
{
  public:
    /**
     * Event callback: SBO, one cache line with its ops pointer, so
     * the simulator's closures (a few pointers and scalars) and a
     * wrapped std::function (32 bytes) fit inline. Channels, whose
     * events dominate every run, schedule owned events instead.
     */
    using Callback = InlineFunction<56>;

    /** Index of a registered EventOwner. */
    using OwnerId = std::uint32_t;

    /** Event kinds per owner: the low bits of an owned key. */
    static constexpr unsigned kOwnedKinds = 4;

    EventQueue() : EventQueue(EventQueueBackendKind::Heap) {}
    explicit EventQueue(EventQueueBackendKind kind);
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /**
     * Swap the priority-structure backend. Only legal on a pristine
     * queue (nothing pending, nothing executed, now() == 0): both
     * backends order identically, but swapping mid-run would strand
     * pending items. Lets members constructed as `EventQueue _eq;`
     * apply a configured backend first thing in the owner's body.
     */
    void setBackend(EventQueueBackendKind kind);

    EventQueueBackendKind backend() const { return _backendKind; }

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute firing time; must be >= now(). A tick in
     *             the past is a hard error under SimCheck, and is
     *             otherwise clamped to now() with a warning.
     * @param cb Callback invoked when the event fires.
     * @param label Optional debug label (lazy; see event_label.hh).
     * @return A handle usable with deschedule().
     */
    EventId schedule(Tick when, Callback &&cb, EventLabel &&label = {});

    /** Schedule a callback @p delta ticks in the future. */
    EventId
    scheduleAfter(Tick delta, Callback &&cb, EventLabel &&label = {})
    {
        return schedule(_now + delta, std::move(cb),
                        std::move(label));
    }

    /**
     * Schedule a *weak* (background) event. Weak events — periodic
     * metric samplers, watchdogs — execute normally while ordinary
     * events exist, but do not keep the simulation alive: the moment
     * only weak events remain pending, run()/step() discard them
     * without executing and stop, leaving now() at the last ordinary
     * event. This lets observers self-reschedule unconditionally
     * without wedging the drain or distorting makespans.
     */
    EventId scheduleWeak(Tick when, Callback &&cb,
                         EventLabel &&label = {});

    /**
     * Register @p owner for owned events: O(1), once per owner (a
     * Channel registers at construction). More owners than an owned
     * key can index are a fatal error.
     */
    OwnerId registerOwner(EventOwner &owner);

    /**
     * Schedule event @p kind of owner @p owner at an absolute tick. It
     * takes the next seq, orders and counts (pendingCount(), the
     * profiler's schedules) like schedule(), and fires as
     * `owner.fireOwnedEvent(kind)`. Owned events are never weak and
     * cannot be cancelled, so there is no EventId. A tick in the past
     * is handled as in schedule(). While a CausalRecorder is attached
     * the event borrows a payload slot to carry its provenance node;
     * order and dispatch are the same.
     */
    void
    scheduleOwned(Tick when, OwnerId owner, unsigned kind)
    {
        assert(owner < _owners.size() && kind < kOwnedKinds);
        const std::uint32_t key = ownedKey(owner, kind);
        if (when < _now)
            when = clampPast(when, key, _nextSeq);
        pushOwned(when, _nextSeq++, key);
    }

    /**
     * Take the next seq without scheduling anything: the seq an event
     * scheduled now would get. scheduleOwnedAt() or scheduleAt() may
     * later schedule an event at it; if nothing does, the seq stays
     * unused and no other key moves.
     */
    std::uint64_t reserveSeq() { return _nextSeq++; }

    /**
     * The seq of the executing event; UINT64_MAX between events, so a
     * key (now(), seq) reserved earlier counts as due at top level.
     */
    std::uint64_t currentSeq() const { return _currentSeq; }

    /**
     * scheduleOwned() at a (tick, seq) key whose seq came from
     * reserveSeq(). The key must lie after the executing event's (a
     * SimCheck failure otherwise). The event then runs exactly where
     * one scheduled at the reservation would have.
     */
    void
    scheduleOwnedAt(Tick when, std::uint64_t seq, OwnerId owner,
                    unsigned kind)
    {
        assert(owner < _owners.size() && kind < kOwnedKinds);
        assert(seq < _nextSeq);
        const std::uint32_t key = ownedKey(owner, kind);
        if (when < _now || (when == _now && seq <= _currentSeq))
            when = reservedPast(when, seq, key);
        pushOwned(when, seq, key);
    }

    /** schedule() at a (tick, seq) key whose seq came from
        reserveSeq(), under the rule of scheduleOwnedAt(). */
    EventId scheduleAt(Tick when, std::uint64_t seq, Callback &&cb,
                       EventLabel &&label = {});

    /**
     * Cancel a pending event.
     *
     * @param id Handle returned by schedule().
     * @return true if the event was pending and is now cancelled;
     *         false for stale handles (already executed or cancelled).
     */
    bool deschedule(EventId id);

    /** Whether any events remain pending (weak ones included). */
    bool empty() const { return _live == 0; }

    /** Number of pending (non-cancelled) events, weak and owned ones
        included. */
    std::size_t pendingCount() const { return _live; }

    /** Number of pending weak (background) events. */
    std::size_t weakCount() const { return _weakLive; }

    /**
     * Run until the queue drains.
     *
     * @return The number of events executed.
     */
    std::uint64_t run();

    /** Execute only the next pending event, if any. */
    bool step();

    /** Total events executed since construction or reset(). */
    std::uint64_t executedCount() const { return _executed; }

    /**
     * Size of the payload slot pool (high-water mark of concurrently
     * pending callback events; owned events take no slot unless a
     * CausalRecorder is attached). Slots are recycled through a free
     * list, so this stays flat across reset()s and arbitrarily long
     * drains — the regression test for the pool pins exactly that.
     */
    std::size_t poolSlots() const { return _slotCount; }

    /**
     * Attach a wall-clock profiler (nullptr detaches). While attached,
     * executeHead times every callback and attributes the host time to
     * the event's label; schedule/deschedule counts and peak heap
     * depth are tracked too. Off by default — the hot path pays only a
     * branch when no profiler is attached.
     */
    void setProfiler(DesProfiler *profiler) { _profiler = profiler; }

    DesProfiler *profiler() const { return _profiler; }

    /**
     * Attach a causal (provenance) recorder (nullptr detaches). While
     * attached, every schedule records its parent — the event
     * executing at the time — plus the wait-edge tags of the active
     * CausalScope; execution is otherwise untouched, so the recorder
     * never perturbs event order or the determinism-audit hash. Off
     * by default — one branch per schedule/execute when detached.
     */
    void
    setCausalRecorder(CausalRecorder *recorder)
    {
        _causal = recorder;
    }

    CausalRecorder *causalRecorder() const { return _causal; }

    /**
     * Attach a Chrome-tracing sink (nullptr detaches). The queue only
     * holds it: every component running on the queue (training
     * sessions, collectives, the cluster and serving drivers) reads
     * it here when it emits, so one attach traces the whole run.
     */
    void setTrace(TraceSink *trace) { _trace = trace; }

    TraceSink *trace() const { return _trace; }

    /** Clear all pending events and rewind time to zero. */
    void reset();

  private:
    /** Pooled event payload; keys live in the backend. */
    struct Slot
    {
        Callback cb;
        EventLabel label;
        /** The owned key this slot stands in for (causal recording
            only); 0 for a callback event. */
        std::uint32_t owned = 0;
        /** CausalRecorder node index; -1 = not recorded. */
        std::int64_t causalNode = -1;
        /** Bumped on release; stale EventIds fail the match. */
        std::uint32_t gen = 1;
        bool weak = false;
        bool cancelled = false;
        bool allocated = false;
    };

    /** Slots live in fixed-size chunks, so growing the pool never
        relocates live payloads (a realloc would move every pending
        callback through its type-erased move op). */
    static constexpr std::size_t kSlotChunkShift = 12;
    static constexpr std::size_t kSlotChunkSize = 1u << kSlotChunkShift;

    Slot &
    slotAt(std::uint32_t index)
    {
        return _slotChunks[index >> kSlotChunkShift]
                          [index & (kSlotChunkSize - 1)];
    }

    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffu);
    }

    static std::uint32_t
    genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    static EventId
    makeId(std::uint32_t gen, std::uint32_t slot)
    {
        return (static_cast<EventId>(gen) << 32)
               | static_cast<EventId>(slot);
    }

    /** An EventItem::slot with this bit set is an owned key: owner
        index above kOwnedKindBits, kind below. Payload slot indices
        stay below it. */
    static constexpr std::uint32_t kOwnedTag = 1u << 31;
    static constexpr unsigned kOwnedKindBits = 2;
    static_assert(kOwnedKinds == 1u << kOwnedKindBits,
                  "kinds fill the key's low bits");
    static constexpr std::uint32_t kMaxOwners =
        kOwnedTag >> kOwnedKindBits;

    static std::uint32_t
    ownedKey(OwnerId owner, unsigned kind)
    {
        return kOwnedTag | owner << kOwnedKindBits | kind;
    }

    EventOwner &
    ownerOf(std::uint32_t key) const
    {
        return *_owners[(key & ~kOwnedTag) >> kOwnedKindBits];
    }

    static unsigned
    kindOf(std::uint32_t key)
    {
        return key & (kOwnedKinds - 1);
    }

    /** The label of owned key @p key at seq @p seq (cold paths). */
    void appendOwnedLabel(std::uint32_t key, std::uint64_t seq,
                          std::string &out) const;
    /** The label of the event at seq @p seq in @p slot (cold
        paths). */
    void appendSlotLabel(const Slot &slot, std::uint64_t seq,
                         std::string &out) const;

    /** The past-tick policy of every schedule: a SimCheck failure, or
        a warning and now(). Labels are materialized only here. */
    Tick clampPast(Tick when, const std::string &label);
    Tick clampPast(Tick when, std::uint32_t owned_key,
                   std::uint64_t seq);

    /** The policy for a reserved key at or before the executing
        event: a SimCheck failure, or a warning and a tick no earlier
        than now(). */
    Tick reservedPast(Tick when, std::uint64_t seq,
                      const std::string &label);
    Tick reservedPast(Tick when, std::uint64_t seq,
                      std::uint32_t owned_key);

    /** Give owned key @p key (seq @p seq) a payload slot carrying its
        causal node; returns the slot index to push instead. */
    std::uint32_t recordOwned(std::uint32_t key, std::uint64_t seq);

    /** Push owned key @p key at (@p when, @p seq) and count it. */
    void
    pushOwned(Tick when, std::uint64_t seq, std::uint32_t key)
    {
        if (_causal)
            key = recordOwned(key, seq);
        pushKey(EventItem{when, seq, key});
        ++_live;
        if (_profiler)
            noteScheduled();
    }

    /** Profiler bookkeeping of a schedule (out of line: the header
        does not see DesProfiler). */
    void noteScheduled();

    /** Fill a payload slot and push it at (@p when, @p seq). */
    EventId scheduleEntry(Tick when, std::uint64_t seq, Callback &&cb,
                          EventLabel &&label, bool weak);

    std::uint32_t allocSlot();
    /** Make every id of the slot stale: clear `allocated` and bump
        the generation (skipping 0). */
    static void retireSlot(Slot &slot);
    /** Destroy the payload and put a retired slot on the free list. */
    void recycleSlot(std::uint32_t index);
    /** retireSlot() then recycleSlot(). */
    void releaseSlot(std::uint32_t index);

    /** Execute a popped item in place. Precondition: live,
        non-cancelled. */
    void executeItem(const EventItem &item);

    /** Execute a popped owned key. */
    void executeOwned(const EventItem &item);
    /** executeOwned() with a profiler or causal recorder attached. */
    void executeObservedOwned(const EventItem &item);

    /** Run what @p slot holds: its callback, or the owned event it
        stands in for. */
    void
    fire(Slot &slot)
    {
        if (slot.owned != 0)
            ownerOf(slot.owned).fireOwnedEvent(kindOf(slot.owned));
        else
            slot.cb();
    }

    /** Drop every remaining (weak) entry without executing it. */
    void discardPending();

    // The priority structure: the heap inline, any other backend
    // through its interface.
    bool
    keysEmpty() const
    {
        return _backend ? _backend->empty() : _heap.empty();
    }

    std::size_t
    keyCount() const
    {
        return _backend ? _backend->size() : _heap.size();
    }

    const EventItem &
    peekKey()
    {
        return _backend ? _backend->peek() : _heap.peek();
    }

    void
    pushKey(const EventItem &item)
    {
        if (_backend)
            _backend->push(item);
        else
            _heap.push(item);
    }

    void
    popKey()
    {
        if (_backend)
            _backend->pop();
        else
            _heap.pop();
    }

    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _currentSeq = UINT64_MAX;
    std::uint64_t _executed = 0;
    std::size_t _live = 0;
    std::size_t _weakLive = 0;
    EventQueueBackendKind _backendKind;
    HeapEventQueueBackend _heap;
    /** The configured backend unless it is the heap; null for the
        heap, which keeps the hot path free of virtual calls. */
    std::unique_ptr<EventQueueBackend> _backend;
    std::vector<std::unique_ptr<Slot[]>> _slotChunks;
    std::size_t _slotCount = 0;
    std::vector<std::uint32_t> _freeSlots;
    /** Registered owners, by OwnerId. */
    std::vector<EventOwner *> _owners;
    /** Label materialization scratch for the schedule path (causal)
        and the execute path (profiler); separate buffers because a
        callback schedules while its own label is still in flight. */
    std::string _schedLabelScratch;
    std::string _execLabelScratch;
    DesProfiler *_profiler = nullptr;
    CausalRecorder *_causal = nullptr;
    TraceSink *_trace = nullptr;
};

} // namespace mcdla

#endif // MCDLA_SIM_EVENT_QUEUE_HH
