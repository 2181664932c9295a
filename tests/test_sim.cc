/**
 * @file
 * Unit tests for the simulation core: event queue, units,
 * logging, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simcheck.hh"
#include "sim/units.hh"

namespace mcdla
{
namespace
{

class ThrowingErrors : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

// ---------------------------------------------------------------- units

TEST(Units, TickConstantsAreConsistent)
{
    EXPECT_EQ(ticksPerSec, 1000 * ticksPerMs);
    EXPECT_EQ(ticksPerMs, 1000 * ticksPerUs);
    EXPECT_EQ(ticksPerUs, 1000 * ticksPerNs);
}

TEST(Units, SecondsRoundTrip)
{
    EXPECT_EQ(secondsToTicks(1.0), ticksPerSec);
    EXPECT_DOUBLE_EQ(ticksToSeconds(ticksPerSec), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(ticksPerMs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToUs(ticksPerUs), 1.0);
}

TEST(Units, TransferTicksRoundsUp)
{
    // 1 byte at 1 GB/s = 1 ns = 1000 ticks.
    EXPECT_EQ(transferTicks(1.0, 1e9), 1000u);
    // Fractional durations round up.
    EXPECT_EQ(transferTicks(1.0, 3e12), 1u);
    // Zero bytes take zero time.
    EXPECT_EQ(transferTicks(0.0, 1e9), 0u);
    // Non-empty transfers always take at least one tick.
    EXPECT_GE(transferTicks(1e-3, 1e12), 1u);
}

TEST(Units, TransferTicksScalesLinearly)
{
    const Tick one = transferTicks(1e6, 25e9);
    const Tick ten = transferTicks(10e6, 25e9);
    EXPECT_NEAR(static_cast<double>(ten),
                10.0 * static_cast<double>(one),
                static_cast<double>(one) * 0.01);
}

TEST(Units, Formatters)
{
    EXPECT_NE(formatTime(123).find("ns"), std::string::npos);
    EXPECT_NE(formatTime(ticksPerMs * 5).find("ms"), std::string::npos);
    EXPECT_NE(formatBytes(512).find("B"), std::string::npos);
    EXPECT_NE(formatBytes(2.0 * kGiB).find("GiB"), std::string::npos);
    EXPECT_NE(formatBandwidth(25e9).find("GB/s"), std::string::npos);
}

// ----------------------------------------------------------- event queue

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleAfter(5, [&] { ++fired; });
    });
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id)); // double-cancel is a no-op
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, DescheduleOfInvalidIdFails)
{
    EventQueue eq;
    EXPECT_FALSE(eq.deschedule(invalidEventId));
    EXPECT_FALSE(eq.deschedule(9999));
}

TEST(EventQueue, PendingCountTracksLiveEvents)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pendingCount(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, StepExecutesSingleEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.schedule(50, [] {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executedCount(), 0u);
}

TEST_F(ThrowingErrors, SchedulingInThePastClampsToNow)
{
    // Without SimCheck a past-tick schedule is a logged clamp, not a
    // hard error: the event runs at now().
    const bool was_enabled = simcheck::enabled();
    simcheck::setEnabled(false);
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    bool ran = false;
    Tick fired = 0;
    eq.schedule(50, [&] {
        ran = true;
        fired = eq.now();
    });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(fired, 100u);
    simcheck::setEnabled(was_enabled);
}

TEST_F(ThrowingErrors, SchedulingInThePastPanicsUnderSimCheck)
{
    const bool was_enabled = simcheck::enabled();
    simcheck::setEnabled(true);
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
    simcheck::setEnabled(was_enabled);
}

TEST_F(ThrowingErrors, SchedulingEmptyCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(10, EventQueue::Callback{}), PanicError);
}

// ---------------------------------------------------------- owned events

/** An EventOwner that logs the tick and kind of every event it runs. */
struct LoggingOwner : EventOwner
{
    EventQueue &eq;
    EventQueue::OwnerId id;
    std::vector<std::pair<Tick, unsigned>> fired;

    explicit LoggingOwner(EventQueue &queue)
        : eq(queue), id(queue.registerOwner(*this))
    {}

    void
    fireOwnedEvent(unsigned kind) override
    {
        fired.emplace_back(eq.now(), kind);
    }

    void
    appendOwnedLabel(unsigned kind, std::uint64_t /*seq*/,
                     std::string &out) const override
    {
        out += "owner.kind" + std::to_string(kind);
    }
};

using Fired = std::vector<std::pair<Tick, unsigned>>;

TEST(OwnedEvents, FireInSeqOrderAmongCallbacks)
{
    EventQueue eq;
    LoggingOwner owner(eq);
    // Each callback records how many owned events ran before it.
    std::vector<std::size_t> seen;
    const auto count = [&] { seen.push_back(owner.fired.size()); };
    eq.schedule(10, count);
    eq.scheduleOwned(10, owner.id, 3);
    eq.schedule(10, count);
    eq.scheduleOwned(5, owner.id, 0);
    EXPECT_EQ(eq.pendingCount(), 4u);
    EXPECT_EQ(eq.poolSlots(), 2u); // the callbacks' slots only
    EXPECT_EQ(eq.run(), 4u);
    EXPECT_EQ(owner.fired, (Fired{{5, 0}, {10, 3}}));
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(eq.executedCount(), 4u);
    EXPECT_TRUE(eq.empty());
}

TEST(OwnedEvents, KeepRunGoingWhileOnlyWeakEventsRemainOtherwise)
{
    EventQueue eq;
    LoggingOwner owner(eq);
    int samples = 0;
    eq.scheduleWeak(5, [&samples] { ++samples; });
    eq.scheduleOwned(40, owner.id, 2);
    eq.scheduleWeak(50, [&samples] { ++samples; });
    EXPECT_EQ(eq.pendingCount(), 3u);
    EXPECT_EQ(eq.weakCount(), 2u);
    // The owned event is ordinary work: the weak sampler at 5 runs,
    // the one at 50 is dropped once the owned event at 40 is done.
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(samples, 1);
    EXPECT_EQ(owner.fired, (Fired{{40, 2}}));
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_TRUE(eq.empty());
}

TEST_F(ThrowingErrors, SchedulingAnOwnedEventInThePastPanicsUnderSimCheck)
{
    const bool was_enabled = simcheck::enabled();
    simcheck::setEnabled(true);
    EventQueue eq;
    LoggingOwner owner(eq);
    eq.scheduleOwned(100, owner.id, 0);
    eq.run();
    try {
        eq.scheduleOwned(50, owner.id, 1);
        ADD_FAILURE() << "expected a PanicError";
    } catch (const PanicError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("SimCheck[event-queue]"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("owner.kind1"), std::string::npos) << msg;
    }
    simcheck::setEnabled(was_enabled);
}

// --------------------------------------------------------------- logging

TEST_F(ThrowingErrors, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST_F(ThrowingErrors, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config %s", "x"), FatalError);
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strfmt("plain"), "plain");
}

// ------------------------------------------------------- inline function

using SmallFn = InlineFunction<24>;

/** An inline, trivially copyable target. */
struct Counter
{
    int *hits;
    int step;

    void operator()() const { *hits += step; }
};

static_assert(std::is_trivially_copyable<Counter>::value,
              "moves by memcpy");
static_assert(SmallFn::fitsInline<Counter>(), "stored inline");

TEST(InlineFunction, TriviallyCopyableTargetSurvivesRepeatedMoves)
{
    int hits = 0;
    SmallFn fn(Counter{&hits, 3});
    for (int i = 0; i < 16; ++i) {
        SmallFn next(std::move(fn));
        EXPECT_FALSE(static_cast<bool>(fn));
        fn = std::move(next);
        EXPECT_FALSE(static_cast<bool>(next));
    }
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    EXPECT_EQ(hits, 3);
}

TEST(InlineFunction, CallbackWrapsASmallerInlineFunction)
{
    int hits = 0;
    SmallFn small(Counter{&hits, 1});
    // The Callback's target is the whole smaller function, moved in.
    EventQueue::Callback cb(std::move(small));
    EXPECT_FALSE(static_cast<bool>(small));
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(hits, 1);
    // Through the kernel: a scheduled function runs exactly once.
    EventQueue eq;
    SmallFn scheduled(Counter{&hits, 10});
    eq.scheduleAfter(5, std::move(scheduled));
    EXPECT_FALSE(static_cast<bool>(scheduled));
    eq.run();
    EXPECT_EQ(hits, 11);
}

/** Too large for a SmallFn; counts its destructions. */
struct BigTracked
{
    int *destroyed;
    int *hits;
    double pad[6] = {};
    bool live = true;

    BigTracked(int *d, int *h) : destroyed(d), hits(h) {}

    BigTracked(BigTracked &&other) noexcept
        : destroyed(other.destroyed), hits(other.hits),
          live(other.live)
    {
        other.live = false;
    }

    ~BigTracked()
    {
        if (live)
            ++*destroyed;
    }

    void operator()() const { ++*hits; }
};

static_assert(!SmallFn::fitsInline<BigTracked>(), "heap-stored");

TEST(InlineFunction, HeapStoredTargetIsDeletedExactlyOnce)
{
    int destroyed = 0;
    int hits = 0;
    {
        SmallFn fn(BigTracked(&destroyed, &hits));
        SmallFn moved(std::move(fn));
        SmallFn assigned;
        assigned = std::move(moved);
        EventQueue::Callback wrapped(std::move(assigned));
        EventQueue::Callback last(std::move(wrapped));
        last();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(hits, 1);
    // Overwriting a holder deletes its old target once too.
    {
        EventQueue::Callback cb(BigTracked(&destroyed, &hits));
        cb = EventQueue::Callback([] {});
        EXPECT_EQ(destroyed, 2);
    }
    EXPECT_EQ(destroyed, 2);
}

// ---------------------------------------------------------------- random

TEST(Random, DeterministicForSameSeed)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Random, BelowStaysInRange)
{
    Random r(99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, BetweenIsInclusive)
{
    Random r(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        hit_lo |= v == 3;
        hit_hi |= v == 5;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Random, UniformMeanIsCentered)
{
    Random r(42);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

} // anonymous namespace
} // namespace mcdla
