/**
 * @file
 * Event-queue backend equivalence and slot-pool regression tests.
 *
 * The heap and calendar backends must produce the *exact* same global
 * event order — not merely the same final state — because the
 * determinism audit hashes the executed (tick, label) stream. The
 * differential fuzzer here drives both backends through identical
 * randomized schedule/cancel/weak workloads (same-tick bursts, dense
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
    std::uint64_t descheduled = 0;
    std::uint64_t weakFired = 0;
    Tick finalNow = 0;

    bool
    operator==(const FuzzResult &other) const
    {
        return streamHash == other.streamHash
               && executed == other.executed
               && descheduled == other.descheduled
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
        result.descheduled = _descheduled;
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
            const EventId id =
                _eq.schedule(_eq.now() + randomDelta(),
                             [this] { step(); },
                             labelFor(_rng.next()));
            _ids.push_back(id);
        }
    }

    void
    step()
    {
        // Cancel a random earlier handle now and then; many are stale
        // (already executed or cancelled) and must be refused — the
        // refusal pattern is part of the cross-backend contract.
        if (!_ids.empty() && _rng.below(4) == 0) {
            const EventId victim =
                _ids[static_cast<std::size_t>(_rng.below(_ids.size()))];
            if (_eq.deschedule(victim))
                ++_descheduled;
        }
        spawn(_rng.below(4));
    }

    EventQueue _eq;
    DesProfiler _prof;
    Random _rng;
    std::uint64_t _budget = 20000;
    std::vector<EventId> _ids;
    std::uint64_t _descheduled = 0;
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
        EXPECT_GT(heap.descheduled, 0u) << "seed " << seed;
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
    many keys tie on `when` and order by `seq` alone. */
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

bool
sameKey(const EventItem &a, const EventItem &b)
{
    return a.when == b.when && a.seq == b.seq && a.slot == b.slot;
}

TEST(HeapBackendReference, DrainMatchesSortedOrder)
{
    Random rng(17);
    // Sizes leave every partial last child group (n mod 4 = 1, 2, 3)
    // as well as full ones.
    for (std::size_t n :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 13u, 17u, 22u, 63u, 64u, 65u,
          66u, 257u, 1023u, 4097u}) {
        std::uint64_t seq = 0;
        std::vector<EventItem> keys = randomKeys(rng, n, 1000, seq);
        // Push in a shuffled order so seq order is not insert order.
        for (std::size_t i = keys.size(); i > 1; --i)
            std::swap(keys[i - 1],
                      keys[static_cast<std::size_t>(rng.below(i))]);
        HeapEventQueueBackend heap;
        for (const EventItem &key : keys)
            heap.push(key);
        ASSERT_EQ(heap.size(), n);
        std::vector<EventItem> sorted = keys;
        std::sort(sorted.begin(), sorted.end(), eventItemBefore);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(sameKey(heap.peek(), sorted[i]))
                << "n=" << n << " pop " << i;
            ASSERT_TRUE(sameKey(heap.pop(), sorted[i]))
                << "n=" << n << " pop " << i;
        }
        EXPECT_TRUE(heap.empty());
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

TEST(EventQueuePool, PoolStaysFlatAcrossDrainsAndResets)
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
    // ...and reset() releases into the same pool rather than growing.
    for (int round = 0; round < 200; ++round) {
        for (Tick i = 0; i < 50; ++i)
            eq.scheduleAfter(100 + i, [] {});
        eq.runUntil(120);
        eq.reset();
    }
    EXPECT_EQ(eq.poolSlots(), high_water);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueuePool, DescheduleOfExecutedIdIsRefused)
{
    EventQueue eq;
    int fired = 0;
    const EventId executed = eq.schedule(10, [&fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // The slot retired at pop time: the stale handle is refused...
    EXPECT_FALSE(eq.deschedule(executed));
    // ...even after the slot is recycled by a new event (the bumped
    // generation keeps the stale id from aliasing its successor).
    const EventId successor = eq.schedule(20, [&fired] { ++fired; });
    EXPECT_FALSE(eq.deschedule(executed));
    EXPECT_TRUE(eq.deschedule(successor));
    EXPECT_FALSE(eq.deschedule(successor)); // already cancelled
    eq.run();
    EXPECT_EQ(fired, 1);
}

} // anonymous namespace
} // namespace mcdla
