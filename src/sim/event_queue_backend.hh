/**
 * @file
 * Pluggable priority structures for the DES kernel.
 *
 * The EventQueue stores event payloads (callback, label, flags) in a
 * slot pool and keeps only POD EventItem keys — (when, seq, slot) — in
 * the priority structure. That split is what makes the structure
 * swappable: a backend orders 24-byte keys and never touches payloads.
 *
 * Two backends ship: a 4-ary heap (the default) and a Brown-style
 * calendar queue whose push/pop are O(1) amortized when event ticks are
 * roughly uniform — the common case for bandwidth-driven simulations.
 * Both produce the exact global (when, seq) order, so same-tick FIFO
 * semantics and the determinism-audit stream hash are identical under
 * either backend (`mcdla_sim --event-queue heap|calendar`). The heap
 * is defined inline here because the EventQueue calls it directly,
 * without the virtual interface; other backends go through it.
 */

#ifndef MCDLA_SIM_EVENT_QUEUE_BACKEND_HH
#define MCDLA_SIM_EVENT_QUEUE_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "units.hh"

namespace mcdla
{

/** Priority-structure key for one pending event: payload lives in the
 *  EventQueue's slot pool, indexed by @c slot. Ordered by (when, seq):
 *  seq is globally unique and increasing, giving same-tick FIFO. */
struct EventItem
{
    Tick when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
};

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
 * and pop() must not be called on an empty backend; pushed items are
 * never earlier than the last popped item (the kernel clamps
 * past-tick schedules to now() first).
 */
class EventQueueBackend
{
  public:
    virtual ~EventQueueBackend() = default;

    virtual void push(const EventItem &item) = 0;
    /** The minimum item. Precondition: !empty(). */
    virtual const EventItem &peek() const = 0;
    /** Remove and return the minimum item. Precondition: !empty(). */
    virtual EventItem pop() = 0;
    virtual bool empty() const = 0;
    virtual std::size_t size() const = 0;
    virtual void clear() = 0;
};

/** Selects the EventQueue's priority structure (`--event-queue`). */
enum class EventQueueBackendKind
{
    Heap,     ///< binary heap: O(log n), robust to any tick pattern
    Calendar, ///< calendar queue: O(1) amortized for uniform ticks
};

const char *eventQueueBackendToken(EventQueueBackendKind kind);
EventQueueBackendKind
parseEventQueueBackendKind(const std::string &name);
const std::string &eventQueueBackendTokenList();
std::unique_ptr<EventQueueBackend>
makeEventQueueBackend(EventQueueBackendKind kind);

/**
 * 4-ary implicit min-heap over a flat vector. The default backend:
 * O(log n) everything, no distribution assumptions. Four children per
 * node halves the tree depth of a binary heap, and a node's four
 * 24-byte children span at most three cache lines, which is what the
 * deep-queue pop path is bound by. push/pop are inline so the
 * EventQueue's direct calls compile into its hot loop.
 */
class HeapEventQueueBackend final : public EventQueueBackend
{
  public:
    void
    push(const EventItem &item) override
    {
        std::size_t hole = _heap.size();
        _heap.push_back(item);
        EventItem *heap = _heap.data();
        while (hole > 0) {
            const std::size_t parent = (hole - 1) / kArity;
            if (!eventItemBefore(item, heap[parent]))
                break;
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = item;
    }

    const EventItem &peek() const override { return _heap.front(); }

    EventItem
    pop() override
    {
        const EventItem top = _heap.front();
        const EventItem last = _heap.back();
        _heap.pop_back();
        const std::size_t size = _heap.size();
        if (size == 0)
            return top;
        // Sift the former last leaf down from the root.
        EventItem *heap = _heap.data();
        std::size_t hole = 0;
        for (;;) {
            const std::size_t first = hole * kArity + 1;
            std::size_t best;
            if (first + kArity <= size) {
                // A full group: a two-round tournament of selects,
                // not a data-dependent branch per child.
                const std::size_t left =
                    first + eventItemBefore(heap[first + 1], heap[first]);
                const std::size_t right = first + 2
                    + eventItemBefore(heap[first + 3], heap[first + 2]);
                best = eventItemBefore(heap[right], heap[left]) ? right
                                                                : left;
            } else if (first < size) {
                best = first;
                for (std::size_t child = first + 1; child < size; ++child)
                    if (eventItemBefore(heap[child], heap[best]))
                        best = child;
            } else {
                break;
            }
            if (!eventItemBefore(heap[best], last))
                break;
            heap[hole] = heap[best];
            hole = best;
        }
        heap[hole] = last;
        return top;
    }

    bool empty() const override { return _heap.empty(); }
    std::size_t size() const override { return _heap.size(); }
    void clear() override { _heap.clear(); }

  private:
    static constexpr std::size_t kArity = 4;

    std::vector<EventItem> _heap;
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
    const EventItem &peek() const override;
    EventItem pop() override;
    bool empty() const override { return _count == 0; }
    std::size_t size() const override { return _count; }
    void clear() override;

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
    Tick _lastWhen = 0;          ///< last popped tick (scan start)
    /** Cached result of the last peek()'s search, reused by pop(). */
    mutable std::size_t _minBucket = SIZE_MAX;
};

} // namespace mcdla

#endif // MCDLA_SIM_EVENT_QUEUE_BACKEND_HH
