/**
 * @file
 * Event-queue backend equivalence and slot-pool regression tests.
 *
 * The heap and calendar backends must produce the *exact* same global
 * event order — not merely the same final state — because the
 * determinism audit hashes the executed (tick, label) stream. The
 * differential fuzzer here drives both backends through identical
 * randomized schedule/weak workloads (same-tick bursts, dense
 * ranges, sparse jumps that force the calendar's year scan and
 * resize machinery) and requires bit-identical stream hashes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/random.hh"

namespace mcdla
{
namespace
{

/** Outcome summary of one randomized run; equal across backends. */
struct FuzzResult
{
    std::uint64_t streamHash = 0;
    std::uint64_t executed = 0;
    std::uint64_t weakFired = 0;
    Tick finalNow = 0;

    bool
    operator==(const FuzzResult &other) const
    {
        return streamHash == other.streamHash
               && executed == other.executed
               && weakFired == other.weakFired
               && finalNow == other.finalNow;
    }
};

/** Self-scheduling randomized workload over one EventQueue. */
class Fuzzer
{
  public:
    Fuzzer(EventQueueBackendKind kind, std::uint64_t seed)
        : _eq(kind), _rng(seed)
    {
        _eq.setProfiler(&_prof);
    }

    FuzzResult
    run()
    {
        // A weak heartbeat that reschedules itself unconditionally:
        // it must fire while ordinary events exist and be discarded
        // (not executed) the moment only weak events remain.
        scheduleHeartbeat();
        spawn(64);
        _eq.run();
        EXPECT_EQ(_eq.weakCount(), 0u);
        EXPECT_EQ(_eq.pendingCount(), 0u);
        FuzzResult result;
        result.streamHash = _prof.streamHash();
        result.executed = _eq.executedCount();
        result.weakFired = _weakFired;
        result.finalNow = _eq.now();
        return result;
    }

  private:
    void
    scheduleHeartbeat()
    {
        _eq.scheduleWeak(_eq.now() + 1000,
                         [this] {
                             ++_weakFired;
                             scheduleHeartbeat();
                         },
                         "heartbeat");
    }

    static const char *
    labelFor(std::uint64_t pick)
    {
        static const char *const kLabels[] = {"alpha", "beta", "gamma",
                                              "delta"};
        return kLabels[pick & 3];
    }

    /** Tick offsets span four regimes so the calendar queue exercises
        same-bucket FIFO, dense buckets, resizes, and the sparse
        year-scan fallback. */
    Tick
    randomDelta()
    {
        switch (_rng.below(10)) {
          case 0:
            return 0; // same-tick burst: FIFO order must hold
          case 1:
          case 2:
          case 3:
          case 4:
          case 5:
          case 6:
            return static_cast<Tick>(_rng.between(1, 256));
          case 7:
          case 8:
            return static_cast<Tick>(_rng.between(1, 100000));
          default:
            // Sparse jump: empties a calendar "year".
            return static_cast<Tick>(_rng.between(10000000, 500000000));
        }
    }

    void
    spawn(std::uint64_t fanout)
    {
        for (std::uint64_t i = 0; i < fanout && _budget > 0; ++i) {
            --_budget;
            _eq.schedule(_eq.now() + randomDelta(),
                         [this] { spawn(_rng.below(4)); },
                         labelFor(_rng.next()));
        }
    }

    EventQueue _eq;
    DesProfiler _prof;
    Random _rng;
    std::uint64_t _budget = 20000;
    std::uint64_t _weakFired = 0;
};

TEST(EventBackendDifferential, HeapAndCalendarProduceIdenticalStreams)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const FuzzResult heap =
            Fuzzer(EventQueueBackendKind::Heap, seed).run();
        const FuzzResult calendar =
            Fuzzer(EventQueueBackendKind::Calendar, seed).run();
        EXPECT_TRUE(heap == calendar)
            << "seed " << seed << ": heap hash " << heap.streamHash
            << " (" << heap.executed << " events) vs calendar hash "
            << calendar.streamHash << " (" << calendar.executed
            << " events)";
        // A degenerate run would vacuously pass; require real work.
        EXPECT_GT(heap.executed, 10000u) << "seed " << seed;
        EXPECT_GT(heap.weakFired, 0u) << "seed " << seed;
    }
}

TEST(EventBackendDifferential, BackendTokensRoundTrip)
{
    EXPECT_EQ(parseEventQueueBackendKind("heap"),
              EventQueueBackendKind::Heap);
    EXPECT_EQ(parseEventQueueBackendKind("calendar"),
              EventQueueBackendKind::Calendar);
    EXPECT_STREQ(eventQueueBackendToken(EventQueueBackendKind::Heap),
                 "heap");
    EXPECT_STREQ(
        eventQueueBackendToken(EventQueueBackendKind::Calendar),
        "calendar");
}

// ------------------------------------------------------ heap reference

/** Random keys with same-tick bursts: ticks from a narrow range, so
    many keys tie on `when` and order by `seq` alone. Ticks come in no
    particular order; seq follows the order of the returned keys, as
    the kernel's push counter does. */
std::vector<EventItem>
randomKeys(Random &rng, std::size_t n, Tick base, std::uint64_t &seq)
{
    std::vector<EventItem> keys;
    for (std::size_t i = 0; i < n; ++i) {
        const Tick when = base
            + (rng.below(3) == 0 ? 0
                                 : static_cast<Tick>(rng.below(16)));
        keys.push_back(EventItem{when, seq++,
                                 static_cast<std::uint32_t>(i)});
    }
    return keys;
}

/** Keys in seq order over shuffled, bursty ticks: runs of one tick
    (bursts) separated by jumps both ways across a wide range. */
std::vector<EventItem>
burstyKeys(Random &rng, std::size_t n, std::uint64_t &seq)
{
    std::vector<EventItem> keys;
    Tick when = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.below(4) == 0)
            when = static_cast<Tick>(
                rng.below(rng.below(2) == 0 ? 64 : 1'000'000'000));
        keys.push_back(EventItem{when, seq++,
                                 static_cast<std::uint32_t>(i)});
    }
    return keys;
}

bool
sameKey(const EventItem &a, const EventItem &b)
{
    return a.when == b.when && a.seq == b.seq && a.slot == b.slot;
}

/** Push @p keys in order, then drain: every peek and pop must match
    the (when, seq) sort of the keys. */
void
expectSortedDrain(EventQueueBackend &backend,
                  const std::vector<EventItem> &keys)
{
    for (const EventItem &key : keys)
        backend.push(key);
    ASSERT_EQ(backend.size(), keys.size());
    std::vector<EventItem> sorted = keys;
    std::sort(sorted.begin(), sorted.end(), eventItemBefore);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        ASSERT_TRUE(sameKey(backend.peek(), sorted[i]))
            << "n=" << keys.size() << " pop " << i;
        ASSERT_TRUE(sameKey(backend.pop(), sorted[i]))
            << "n=" << keys.size() << " pop " << i;
    }
    EXPECT_TRUE(backend.empty());
}

/** Sizes around powers of two, and with every n mod 4. */
constexpr std::size_t kDrainSizes[] = {1,  2,  3,  4,   5,   6,    7,
                                       9,  13, 17, 22,  63,  64,   65,
                                       66, 257, 1023, 4097};

TEST(HeapBackendReference, DrainMatchesSortedOrder)
{
    // The kernel pushes in seq order, so the ticks are what arrive
    // shuffled: bursts of one tick, jumps up and down between them.
    Random rng(17);
    for (std::size_t n : kDrainSizes) {
        std::uint64_t seq = 0;
        HeapEventQueueBackend heap;
        expectSortedDrain(heap, burstyKeys(rng, n, seq));
    }
}

TEST(CalendarBackendReference, ShuffledDrainMatchesSortedOrder)
{
    // The calendar queue sorts each bucket by (when, seq), so unlike
    // the radix heap it also takes keys out of seq order.
    Random rng(17);
    for (std::size_t n : kDrainSizes) {
        std::uint64_t seq = 0;
        std::vector<EventItem> keys = randomKeys(rng, n, 1000, seq);
        for (std::size_t i = keys.size(); i > 1; --i)
            std::swap(keys[i - 1],
                      keys[static_cast<std::size_t>(rng.below(i))]);
        CalendarEventQueueBackend calendar;
        expectSortedDrain(calendar, keys);
    }
}

TEST(BackendReference, ShuffledSeqsOfOneTickDrainInSortedOrder)
{
    // A key whose seq was reserved earlier (EventQueue::reserveSeq())
    // can follow newer keys of its tick, so both backends must sort
    // by seq within a tick, not trust the push order.
    Random rng(29);
    for (std::size_t n : kDrainSizes) {
        std::uint64_t seq = 0;
        std::vector<EventItem> keys = randomKeys(rng, n, 1000, seq);
        for (std::size_t i = keys.size(); i > 1; --i)
            std::swap(keys[i - 1],
                      keys[static_cast<std::size_t>(rng.below(i))]);
        HeapEventQueueBackend heap;
        expectSortedDrain(heap, keys);
        CalendarEventQueueBackend calendar;
        expectSortedDrain(calendar, keys);
    }
}

TEST(BackendReference, ReservedSeqPushedDuringDrainOvertakesNewerKeys)
{
    // Tick 10 is being drained when keys with seqs reserved before
    // the pending ones arrive, at the base tick and at a later one.
    for (const bool heap_backend : {true, false}) {
        HeapEventQueueBackend heap;
        CalendarEventQueueBackend calendar;
        EventQueueBackend &backend = heap_backend
            ? static_cast<EventQueueBackend &>(heap)
            : static_cast<EventQueueBackend &>(calendar);
        backend.push(EventItem{10, 0, 0});
        backend.push(EventItem{10, 1, 1});
        backend.push(EventItem{10, 5, 2});
        backend.push(EventItem{12, 6, 3});
        EXPECT_EQ(backend.pop().slot, 0u);
        backend.push(EventItem{10, 3, 4});
        backend.push(EventItem{12, 2, 5});
        backend.push(EventItem{10, 4, 6});
        for (std::uint32_t slot : {1u, 4u, 6u, 2u, 5u, 3u}) {
            ASSERT_FALSE(backend.empty());
            EXPECT_EQ(backend.pop().slot, slot) << heap_backend;
        }
        EXPECT_TRUE(backend.empty());
    }
}

TEST(HeapBackendReference, ExtremeBucketsDrainInOrder)
{
    // Base 0: UINT64_MAX and UINT64_MAX - 1 differ from it in bit 63
    // (the top bucket), tick 1 only in bit 0 (the lowest bucket
    // above the base's own).
    std::uint64_t seq = 0;
    const Tick top = UINT64_MAX;
    HeapEventQueueBackend heap;
    expectSortedDrain(heap, {EventItem{0, seq++, 0},
                             EventItem{top, seq++, 1},
                             EventItem{1, seq++, 2},
                             EventItem{top - 1, seq++, 3},
                             EventItem{top, seq++, 4},
                             EventItem{1, seq++, 5}});
    // From a base just below 2^63, 2^63 and UINT64_MAX both differ
    // in bit 63; settling that bucket spreads them apart again.
    const Tick half = Tick{1} << 63;
    expectSortedDrain(heap, {EventItem{half - 1, seq++, 6},
                             EventItem{top, seq++, 7},
                             EventItem{half, seq++, 8},
                             EventItem{half - 1, seq++, 9},
                             EventItem{half, seq++, 10}});
}

TEST(HeapBackendReference, BaseTickPushDuringDrainKeepsFifo)
{
    std::uint64_t seq = 0;
    HeapEventQueueBackend heap;
    heap.push(EventItem{10, seq++, 0});
    heap.push(EventItem{10, seq++, 1});
    heap.push(EventItem{12, seq++, 2});
    EXPECT_EQ(heap.pop().slot, 0u);
    // Bucket 0 still holds slot 1: a push at the base tick queues
    // behind it, one later tick behind both.
    heap.push(EventItem{10, seq++, 3});
    heap.push(EventItem{11, seq++, 4});
    heap.push(EventItem{10, seq++, 5});
    for (std::uint32_t slot : {1u, 3u, 5u, 4u, 2u}) {
        ASSERT_FALSE(heap.empty());
        EXPECT_EQ(heap.pop().slot, slot);
    }
    EXPECT_TRUE(heap.empty());
}

TEST(EventBackendDifferential, EmptiedBackendTakesEarlierTicks)
{
    // The kernel discards weak events by popping them, so a drained
    // backend may have popped ticks past now(); the keys pushed next
    // come in any tick order, below those ticks too.
    for (EventQueueBackendKind kind :
         {EventQueueBackendKind::Heap, EventQueueBackendKind::Calendar}) {
        SCOPED_TRACE(eventQueueBackendToken(kind));
        Random rng(5);
        std::uint64_t seq = 0;
        const std::unique_ptr<EventQueueBackend> backend =
            makeEventQueueBackend(kind);
        for (int round = 0; round < 4; ++round) {
            for (const EventItem &key : burstyKeys(rng, 500, seq))
                backend->push(key);
            while (!backend->empty())
                backend->pop();
            expectSortedDrain(*backend, burstyKeys(rng, 300, seq));
        }
    }
}

TEST(HeapBackendReference, HoldPatternMatchesSortedOrder)
{
    // The kernel's access pattern: pop the minimum, push keys no
    // earlier than it, at sizes that drift across group boundaries.
    Random rng(29);
    std::uint64_t seq = 0;
    HeapEventQueueBackend heap;
    std::vector<EventItem> shadow;
    for (const EventItem &key : randomKeys(rng, 301, 0, seq)) {
        heap.push(key);
        shadow.push_back(key);
    }
    for (int op = 0; op < 20000; ++op) {
        ASSERT_FALSE(shadow.empty());
        std::sort(shadow.begin(), shadow.end(), eventItemBefore);
        const EventItem expected = shadow.front();
        shadow.erase(shadow.begin());
        const EventItem got = heap.pop();
        ASSERT_TRUE(sameKey(got, expected)) << "op " << op;
        // 0-3 pushes per pop below 200 keys, 0-1 above: the size
        // wanders around 200, across every n mod 4.
        const std::size_t pushes =
            static_cast<std::size_t>(rng.below(shadow.size() < 200 ? 4
                                                                   : 2));
        for (const EventItem &key :
             randomKeys(rng, pushes, got.when, seq)) {
            heap.push(key);
            shadow.push_back(key);
        }
        ASSERT_EQ(heap.size(), shadow.size());
    }
}

// ------------------------------------------------------------ slot pool

TEST(EventQueuePool, PoolStaysFlatAcrossDrains)
{
    EventQueue eq;
    const auto burst = [&eq] {
        for (Tick i = 0; i < 100; ++i)
            eq.scheduleAfter(i, [] {});
        eq.run();
    };
    // Warm the pool to its high-water mark.
    for (int round = 0; round < 10; ++round)
        burst();
    const std::size_t high_water = eq.poolSlots();
    EXPECT_LE(high_water, 128u); // ~peak concurrency, not event count
    // Long drains recycle slots through the free list...
    for (int round = 0; round < 200; ++round)
        burst();
    EXPECT_EQ(eq.poolSlots(), high_water);
    // ...and so do the weak events a drain discards unexecuted.
    int weak_fired = 0;
    for (int round = 0; round < 200; ++round) {
        const Tick last = eq.now() + 1;
        eq.schedule(last, [] {});
        for (Tick i = 0; i < 50; ++i)
            eq.scheduleWeak(last + 1 + i, [&weak_fired] {
                ++weak_fired;
            });
        eq.run();
        ASSERT_EQ(eq.now(), last);
    }
    EXPECT_EQ(weak_fired, 0);
    EXPECT_EQ(eq.poolSlots(), high_water);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.weakCount(), 0u);
}

// ------------------------------------------------- in-place execution

/** Counts destructions of live (not moved-from) copies. */
struct Tracked
{
    int *destroyed;
    bool live = true;

    explicit Tracked(int *counter) : destroyed(counter) {}

    Tracked(Tracked &&other) noexcept
        : destroyed(other.destroyed), live(other.live)
    {
        other.live = false;
    }

    Tracked &operator=(Tracked &&) = delete;

    ~Tracked()
    {
        if (live)
            ++*destroyed;
    }
};

TEST(EventQueueInPlace, CaptureOutlivesPoolGrowthDuringItsCall)
{
    // The callback schedules past one 4096-slot chunk while it runs
    // in its own slot; its capture must stay intact until it returns
    // and be destroyed exactly once.
    EventQueue eq;
    int destroyed = 0;
    int fired = 0;
    bool intact = false;
    eq.schedule(1, [&eq, &destroyed, &fired, &intact,
                     tracked = Tracked(&destroyed)] {
        for (int i = 0; i < 5000; ++i)
            eq.scheduleAfter(1, [&fired] { ++fired; });
        intact = tracked.live && tracked.destroyed == &destroyed
                 && destroyed == 0;
    });
    eq.run();
    EXPECT_TRUE(intact);
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(fired, 5000);
    EXPECT_GT(eq.poolSlots(), 4096u);
}

} // anonymous namespace
} // namespace mcdla
