/**
 * @file
 * Pluggable priority structures for the DES kernel.
 *
 * The EventQueue stores event payloads (callback, label, flags) in a
 * slot pool and keeps only POD EventItem keys — (when, seq, slot) — in
 * the priority structure. That split is what makes the structure
 * swappable: a backend orders 24-byte keys and never touches payloads.
 *
 * Two backends ship: a monotone radix heap on the tick (the default,
 * token `heap`) and a Brown-style calendar queue whose push/pop are
 * O(1) amortized when event ticks are roughly uniform. Both produce the
 * exact global (when, seq) order, so same-tick FIFO semantics and the
 * determinism-audit stream hash are identical under either backend
 * (`mcdla_sim --event-queue heap|calendar`). The radix heap leans on
 * the kernel's key stream: ticks never run backwards past the last pop,
 * so it orders by tick alone and sorts by seq only among the items of
 * its base tick. Keys mostly arrive in seq order, but not always: an
 * event may be scheduled at a seq reserved earlier
 * (EventQueue::reserveSeq()), after newer keys of the same tick. It is
 * defined inline here because the EventQueue calls it directly,
 * without the virtual interface; other backends go through it.
 */

#ifndef MCDLA_SIM_EVENT_QUEUE_BACKEND_HH
#define MCDLA_SIM_EVENT_QUEUE_BACKEND_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "units.hh"

namespace mcdla
{

/** Priority-structure key for one pending event: payload lives in the
 *  EventQueue's slot pool, indexed by @c slot (or, with the top bit
 *  set, @c slot names an owned event and there is no payload; see
 *  EventQueue::scheduleOwned()). Ordered by (when, seq): seq is
 *  globally unique and increasing, giving same-tick FIFO. */
struct EventItem
{
    Tick when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
};

// Every schedule and pop moves EventItems; a new field slows both.
static_assert(sizeof(EventItem) == 24, "EventItem is the hot key record");

/** True when @p a fires strictly before @p b. Written with bitwise
    operators so the compiler can evaluate it without branches. */
inline bool
eventItemBefore(const EventItem &a, const EventItem &b)
{
    return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
}

/**
 * A priority structure over EventItems.
 *
 * Contract: pop() returns items in exact (when, seq) order; peek()
 * and pop() must not be called on an empty backend; while it is not
 * empty, pushed items are never earlier than the last item peek() or
 * pop() returned (the kernel clamps past-tick schedules to now() first
 * and pops every item it peeks); an empty backend takes any tick.
 * Seqs are unique but may arrive out of order: a key with a reserved
 * seq can follow newer keys of the same tick. peek() may reorganise
 * the structure, so it is not const.
 */
class EventQueueBackend
{
  public:
    virtual ~EventQueueBackend() = default;

    virtual void push(const EventItem &item) = 0;
    /** The minimum item. Precondition: !empty(). */
    virtual const EventItem &peek() = 0;
    /** Remove and return the minimum item. Precondition: !empty(). */
    virtual EventItem pop() = 0;
    virtual bool empty() const = 0;
    virtual std::size_t size() const = 0;
};

/** Selects the EventQueue's priority structure (`--event-queue`). */
enum class EventQueueBackendKind
{
    Heap,     ///< radix heap on the tick: O(log tick range) per item
    Calendar, ///< calendar queue: O(1) amortized for uniform ticks
};

const char *eventQueueBackendToken(EventQueueBackendKind kind);
EventQueueBackendKind
parseEventQueueBackendKind(const std::string &name);
const std::string &eventQueueBackendTokenList();
std::unique_ptr<EventQueueBackend>
makeEventQueueBackend(EventQueueBackendKind kind);

/**
 * Monotone radix heap on `when` (Ahuja, Mehlhorn, Orlin & Tarjan, J.
 * ACM 1990). The default backend. Bucket 0 holds the items at the
 * base tick (the smallest pending tick once settled); bucket i >= 1
 * holds the items whose highest bit differing from the base is bit
 * i-1. Since the kernel only pushes ticks no earlier than the last
 * pop, an item only ever moves to lower buckets, so each costs
 * O(log range) moves over its life and no (when, seq) comparison is
 * made at all.
 *
 * Order is exact, not approximate: items of one tick always share a
 * bucket, and bucket 0 (the base tick's items) is kept sorted by seq
 * as items are placed into it, by a push or a settle. So bucket 0
 * drains in (when, seq) order. Almost every key arrives in seq order
 * and is appended; a reserved seq is inserted behind the newer ones.
 *
 * The key shape this wins on is the simulator's: most pushes land on
 * a tick that is already pending and only a handful of distinct ticks
 * are pending at once, so a push is one append and a pop one read.
 * push/pop are inline so the EventQueue's direct calls compile into
 * its hot loop. Storage allocates on first push.
 */
class HeapEventQueueBackend final : public EventQueueBackend
{
  public:
    void
    push(const EventItem &item) override
    {
        // An emptied heap restarts from tick 0: its next pushes may
        // come in any tick order, and its old base may be the tick of
        // a popped key past now(), a discarded weak event's.
        if (_size == 0)
            _base = 0;
        assert(item.when >= _base);
        ++_size;
        place(item);
    }

    const EventItem &
    peek() override
    {
        if (_frontHead == _front.size())
            settle();
        return _front[_frontHead];
    }

    EventItem
    pop() override
    {
        if (_frontHead == _front.size())
            settle();
        const EventItem item = _front[_frontHead++];
        if (_frontHead == _front.size()) {
            _front.clear();
            _frontHead = 0;
        }
        --_size;
        return item;
    }

    bool empty() const override { return _size == 0; }
    std::size_t size() const override { return _size; }

  private:
    /** 0 for the base tick, else 1 + the highest bit in which
        @p when differs from the base: 1..64. */
    unsigned
    bucketOf(Tick when) const
    {
        const std::uint64_t diff = static_cast<std::uint64_t>(when)
                                   ^ static_cast<std::uint64_t>(_base);
        return diff == 0 ? 0u
                         : 64u - static_cast<unsigned>(
                                     __builtin_clzll(diff));
    }

    /** Put @p item in its bucket for the current base; bucket 0 stays
        sorted by seq. */
    void
    place(const EventItem &item)
    {
        const unsigned bucket = bucketOf(item.when);
        if (bucket == 0) {
            if (_front.size() == _frontHead || _front.back().seq < item.seq)
                _front.push_back(item);
            else
                insertFront(item);
            return;
        }
        _buckets[bucket - 1].push_back(item);
        _mask |= std::uint64_t{1} << (bucket - 1);
    }

    /** Insert @p item into bucket 0 by seq: a reserved seq pushed
        after newer keys of the base tick. */
    void insertFront(const EventItem &item);

    /** Refill the drained bucket 0: move the base to the least tick
        of the lowest non-empty bucket and spread that bucket over
        the ones below it. Precondition: bucket 0 drained, !empty(). */
    void settle();

    /** Bucket 0, drained from _frontHead. */
    std::vector<EventItem> _front;
    std::size_t _frontHead = 0;
    /** Buckets 1..64 at indices 0..63. */
    std::vector<EventItem> _buckets[64];
    /** Bit i set iff _buckets[i] is non-empty. */
    std::uint64_t _mask = 0;
    Tick _base = 0;
    std::size_t _size = 0;
};

/**
 * Brown's calendar queue: a power-of-two array of tick-hashed buckets,
 * each a small vector kept sorted descending (minimum at the back).
 * An item lands in bucket (when / width) & mask; pop scans one "year"
 * of buckets starting from the last popped tick and falls back to a
 * global minimum scan when the year is empty (sparse regions). The
 * bucket count doubles/halves with occupancy and the width is resized
 * to the mean inter-event gap, keeping ~O(1) items per bucket.
 *
 * Same-tick events always hash to the same bucket and buckets are
 * ordered by (when, seq), so the global pop order is exact — not
 * approximate — and matches the heap backend item for item.
 */
class CalendarEventQueueBackend final : public EventQueueBackend
{
  public:
    CalendarEventQueueBackend();

    void push(const EventItem &item) override;
    const EventItem &peek() override;
    EventItem pop() override;
    bool empty() const override { return _count == 0; }
    std::size_t size() const override { return _count; }

  private:
    std::size_t bucketOf(Tick when) const
    {
        return static_cast<std::size_t>(
                   static_cast<std::uint64_t>(when) / _width)
               & _mask;
    }

    /** Locate the minimum item: bucket index, or npos when empty. */
    std::size_t findMinBucket() const;
    void resize(std::size_t nbuckets);
    void maybeGrow();
    void maybeShrink();

    static constexpr std::size_t kMinBuckets = 16;

    std::vector<std::vector<EventItem>> _buckets;
    std::size_t _mask = 0;       ///< bucket count - 1 (power of two)
    std::uint64_t _width = 1;    ///< bucket tick width (>= 1)
    std::size_t _count = 0;      ///< total pending items
    /** Scan start: the last popped tick, or an earlier tick pushed
        into the emptied calendar since. */
    Tick _lastWhen = 0;
    /** Cached result of the last peek()'s search, reused by pop(). */
    std::size_t _minBucket = SIZE_MAX;
};

} // namespace mcdla

#endif // MCDLA_SIM_EVENT_QUEUE_BACKEND_HH
