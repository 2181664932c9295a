/**
 * @file
 * Unit tests for the interconnect: channels, flows, and the fabric
 * builders' ring/hop-count properties from Section III-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "interconnect/channel.hh"
#include "interconnect/fabrics.hh"
#include "interconnect/flow.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/simcheck.hh"

namespace mcdla
{
namespace
{

// --------------------------------------------------------------- channel

/** A hand-built chunk path; its completion runs a callback. */
struct TestPath final : ChunkPath
{
    std::function<void()> onComplete;

    void
    complete() override
    {
        if (onComplete)
            onComplete();
    }
};

/** The paths of one test, kept at stable addresses. */
class TestPaths
{
  public:
    /** A path over @p channels whose completion runs @p done. */
    TestPath &
    make(std::vector<Channel *> channels,
         std::function<void()> done = {})
    {
        TestPath &path = _paths.emplace_back();
        path.channels = std::move(channels);
        path.onComplete = std::move(done);
        return path;
    }

    /** Submit one more @p bytes chunk on @p path's whole walk. */
    static void
    send(TestPath &path, double bytes)
    {
        ++path.outstanding;
        path.channels[0]->submit(Chunk{
            &path, 0,
            static_cast<std::uint32_t>(path.channels.size() - 1),
            bytes});
    }

    /** One chunk of @p bytes over @p channels on a path of its own. */
    void
    send(std::vector<Channel *> channels, double bytes,
         std::function<void()> done = {})
    {
        send(make(std::move(channels), std::move(done)), bytes);
    }

  private:
    std::deque<TestPath> _paths;
};

TEST(Channel, TransferTakesBytesOverBandwidth)
{
    EventQueue eq;
    Channel ch(eq, "c", 25.0 * kGB, 0);
    TestPaths paths;
    Tick done = 0;
    paths.send({&ch}, 25e9, [&] { done = eq.now(); }); // one second
    eq.run();
    EXPECT_EQ(done, ticksPerSec);
    EXPECT_DOUBLE_EQ(ch.bytesTransferred(), 25e9);
}

TEST(Channel, LatencyDelaysDeliveryNotOccupancy)
{
    EventQueue eq;
    const Tick lat = 500 * ticksPerNs;
    Channel ch(eq, "c", 1e9, lat);
    TestPaths paths;
    Tick first = 0, second = 0;
    paths.send({&ch}, 1e3, [&] { first = eq.now(); }); // 1 us occupancy
    paths.send({&ch}, 1e3, [&] { second = eq.now(); });
    eq.run();
    EXPECT_EQ(first, ticksPerUs + lat);
    // Back-to-back: second transfer starts at 1 us, not after delivery.
    EXPECT_EQ(second, 2 * ticksPerUs + lat);
}

TEST(Channel, FifoOrdering)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    TestPaths paths;
    std::vector<int> order;
    paths.send({&ch}, 100, [&] { order.push_back(1); });
    paths.send({&ch}, 100, [&] { order.push_back(2); });
    paths.send({&ch}, 100, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, BusyTicksAccumulate)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    TestPaths paths;
    paths.send({&ch}, 1e3);
    paths.send({&ch}, 1e3);
    eq.run();
    EXPECT_EQ(ch.busyTicks(), 2 * ticksPerUs);
    EXPECT_NEAR(ch.utilization(2 * ticksPerUs), 1.0, 1e-9);
}

TEST(Channel, PeakTrackingMeasuresSaturatedWindow)
{
    EventQueue eq;
    Channel ch(eq, "c", 10.0 * kGB, 0);
    ch.enablePeakTracking(100 * ticksPerUs);
    TestPaths paths;
    TestPath &path = paths.make({&ch});
    // Saturate for 1 ms: peak windowed bandwidth == channel bandwidth.
    for (int i = 0; i < 100; ++i)
        TestPaths::send(path, 100e3); // 10 MB total over 1 ms
    eq.run();
    EXPECT_NEAR(ch.peakBandwidth(), 10.0 * kGB, 0.15 * 10.0 * kGB);
}

TEST(Channel, QueueDepthVisible)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    TestPaths paths;
    for (int i = 0; i < 3; ++i)
        paths.send({&ch}, 1e3);
    EXPECT_EQ(ch.queueDepth(), 2u); // one in flight, two queued
    eq.run();
    EXPECT_EQ(ch.queueDepth(), 0u);
}

TEST(Channel, OccupancyFollowsEachChunkSize)
{
    // Each channel caches the occupancy of the last chunk size it
    // started; a size change, or another channel's bandwidth, must
    // recompute it.
    const double sizes[] = {100, 300, 100};
    EventQueue eq;
    Channel one(eq, "one", 3e9, 0);
    Channel x(eq, "x", 3e9, 0);
    Channel y(eq, "y", 7e9, 0);
    TestPaths paths;
    std::vector<Tick> one_done, xy_done;
    for (double bytes : sizes)
        paths.send({&one}, bytes, [&] { one_done.push_back(eq.now()); });
    for (double bytes : sizes)
        paths.send({&x, &y}, bytes, [&] { xy_done.push_back(eq.now()); });
    eq.run();

    std::vector<Tick> one_expected, xy_expected;
    Tick one_end = 0, x_end = 0, y_end = 0, y_busy = 0;
    for (double bytes : sizes) {
        one_end += transferTicks(bytes, 3e9);
        one_expected.push_back(one_end);
        x_end += transferTicks(bytes, 3e9);
        // y takes each chunk at x's xfer_done (no latency), or when
        // it frees.
        y_end = std::max(x_end, y_end) + transferTicks(bytes, 7e9);
        xy_expected.push_back(y_end);
        y_busy += transferTicks(bytes, 7e9);
    }
    EXPECT_EQ(one_done, one_expected);
    EXPECT_EQ(one.busyTicks(), one_end);
    EXPECT_EQ(xy_done, xy_expected);
    EXPECT_EQ(x.busyTicks(), x_end);
    EXPECT_EQ(y.busyTicks(), y_busy);
    // The sizes really take different times on the two channels.
    EXPECT_NE(transferTicks(100, 3e9), transferTicks(100, 7e9));
}

// --------------------------------------------------------- channel trains

/** Per-step observations of one channel under a submit pattern. */
struct TrainRun
{
    /** (tick, tag) of every path completion. */
    std::vector<std::pair<Tick, int>> completions;
    std::vector<std::size_t> depths; ///< queueDepth() after every event
    std::size_t maxTrains = 0;
    std::size_t peakDepth = 0;
    double bytes = 0.0;
    double transfers = 0.0;
};

/** Submit @p tags as 1 KB transfers on one zero-latency channel and
    run: one path per tag (equal chunks, which merge), or with
    @p unmerged one path per transfer (chunks that never merge). */
TrainRun
runTrain(const std::vector<int> &tags, bool unmerged)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    TestPaths paths;
    TrainRun run;
    std::map<int, TestPath *> by_tag;
    for (int tag : tags) {
        auto done = [&eq, &run, tag] {
            run.completions.emplace_back(eq.now(), tag);
        };
        if (unmerged) {
            paths.send({&ch}, 1e3, done);
        } else {
            TestPath *&path = by_tag[tag];
            if (path == nullptr)
                path = &paths.make({&ch}, done);
            TestPaths::send(*path, 1e3);
        }
        run.maxTrains = std::max(run.maxTrains, ch.queueTrains());
        run.depths.push_back(ch.queueDepth());
    }
    while (eq.step()) {
        run.maxTrains = std::max(run.maxTrains, ch.queueTrains());
        run.depths.push_back(ch.queueDepth());
    }
    run.peakDepth = ch.peakQueueDepth();
    run.bytes = ch.bytesTransferred();
    run.transfers = static_cast<double>(ch.transfers());
    return run;
}

/** The completions a merged run must report: each tag's path
    completes where the unmerged run delivers that tag's last
    transfer. */
std::vector<std::pair<Tick, int>>
lastDeliveries(const TrainRun &unmerged)
{
    std::map<int, Tick> last;
    for (const auto &[tick, tag] : unmerged.completions)
        last[tag] = std::max(last[tag], tick);
    std::vector<std::pair<Tick, int>> expected;
    for (const auto &[tick, tag] : unmerged.completions)
        if (tick == last[tag])
            expected.emplace_back(tick, tag);
    return expected;
}

void
expectSameChannelBehaviour(const TrainRun &trains, const TrainRun &plain)
{
    EXPECT_EQ(trains.completions, lastDeliveries(plain));
    EXPECT_EQ(trains.depths, plain.depths);
    EXPECT_EQ(trains.peakDepth, plain.peakDepth);
    EXPECT_DOUBLE_EQ(trains.bytes, plain.bytes);
    EXPECT_DOUBLE_EQ(trains.transfers, plain.transfers);
}

TEST(ChannelTrain, BurstMatchesUnmergedTransfers)
{
    const std::vector<int> tags(64, 7);
    const TrainRun trains = runTrain(tags, false);
    const TrainRun plain = runTrain(tags, true);
    expectSameChannelBehaviour(trains, plain);
    // The burst really is one train; the separate paths never merged.
    EXPECT_EQ(trains.maxTrains, 1u);
    EXPECT_EQ(plain.maxTrains, 63u);
    EXPECT_EQ(trains.peakDepth, 63u);
    ASSERT_EQ(plain.completions.size(), 64u);
    // 1 us per transfer back to back.
    EXPECT_EQ(trains.completions,
              (std::vector<std::pair<Tick, int>>{{64 * ticksPerUs, 7}}));
    EXPECT_DOUBLE_EQ(trains.bytes, 64e3);
    EXPECT_DOUBLE_EQ(trains.transfers, 64.0);
}

TEST(ChannelTrain, InterleavedStreamKeepsFifoOrder)
{
    // A,A,B,A: only the adjacent As merge, and B stays between them.
    const std::vector<int> tags{1, 1, 1, 2, 1, 1, 2, 2};
    const TrainRun trains = runTrain(tags, false);
    const TrainRun plain = runTrain(tags, true);
    expectSameChannelBehaviour(trains, plain);
    std::vector<int> order;
    for (const auto &delivery : plain.completions)
        order.push_back(delivery.second);
    EXPECT_EQ(order, tags);
    // The first A starts at once; {A,A} {B} {A,A} {B,B} wait.
    EXPECT_EQ(trains.maxTrains, 4u);
}

TEST(ChannelTrain, EqualChunksOfDifferentSizeDoNotMerge)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    TestPaths paths;
    Tick done = 0;
    TestPath &path = paths.make({&ch}, [&] { done = eq.now(); });
    TestPaths::send(path, 100); // starts at once
    TestPaths::send(path, 100);
    TestPaths::send(path, 200);
    TestPaths::send(path, 100);
    EXPECT_EQ(ch.queueDepth(), 3u);
    EXPECT_EQ(ch.queueTrains(), 3u);
    eq.run();
    EXPECT_EQ(done, 500 * ticksPerNs);
    EXPECT_DOUBLE_EQ(ch.bytesTransferred(), 500.0);
}

TEST(ChannelTrain, ConservationHoldsMidTrain)
{
    LogConfig::throwOnError = true;
    const bool was_enabled = simcheck::enabled();
    const std::uint64_t violations = simcheck::violationCount();
    simcheck::setEnabled(true);
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 50 * ticksPerNs);
    TestPaths paths;
    int completed = 0;
    std::vector<TestPath *> by_tag;
    for (int tag = 0; tag < 3; ++tag)
        by_tag.push_back(&paths.make({&ch}, [&] { ++completed; }));
    // Every submit and delivery re-checks the ledger against the
    // trains' bytes x count.
    EXPECT_NO_THROW({
        for (int i = 0; i < 40; ++i)
            TestPaths::send(*by_tag[static_cast<std::size_t>(i / 16)],
                            250);
        for (int i = 0; i < 25; ++i)
            eq.step();
        EXPECT_GT(ch.queueDepth(), ch.queueTrains());
        ch.simcheckVerifyConservation();
        eq.run();
    });
    EXPECT_EQ(completed, 3);
    EXPECT_DOUBLE_EQ(ch.bytesTransferred(), 40 * 250.0);
    EXPECT_EQ(simcheck::violationCount(), violations);
    simcheck::setEnabled(was_enabled);
    LogConfig::throwOnError = false;
}

TEST(ChannelTrain, FifoOrderSurvivesGrowthAfterWrap)
{
    // b's FIFO and its arrivals ring are power-of-two rings indexed
    // through a mask. Leave both heads past slot 0, then queue more
    // than eight entries in each so they grow while wrapped. Every
    // chunk has a size of its own, so nothing merges.
    EventQueue eq;
    Channel a(eq, "a", 1e9, 1000 * ticksPerNs);
    Channel b(eq, "b", 1e9, 0);
    TestPaths paths;
    std::vector<std::pair<Tick, int>> done;
    int next_tag = 0;
    // On an idle b: a blocker, then @p direct chunks submitted to b
    // and @p via chunks over a -> b. a delivers them while b is still
    // busy, so they wait in b's arrivals until the blocker's
    // xfer_done admits them behind the direct ones. Returns the
    // completions that order must give.
    auto round = [&](int direct, int via) {
        const Tick start = eq.now();
        const double blocker = 20000; // 20 us: outlasts a's deliveries
        paths.send({&b}, blocker);
        std::vector<std::pair<Tick, int>> expected;
        Tick end = start + transferTicks(blocker, 1e9);
        auto queue = [&](std::vector<Channel *> channels, double bytes) {
            const int tag = next_tag++;
            paths.send(std::move(channels), bytes,
                       [&, tag] { done.emplace_back(eq.now(), tag); });
            end += transferTicks(bytes, 1e9);
            expected.emplace_back(end, tag);
        };
        for (int i = 0; i < direct; ++i)
            queue({&b}, 101 + next_tag);
        EXPECT_EQ(b.queueTrains(), static_cast<std::size_t>(direct));
        for (int i = 0; i < via; ++i)
            queue({&a, &b}, 101 + next_tag);
        eq.run();
        return expected;
    };
    std::vector<std::pair<Tick, int>> expected = round(3, 3);
    const std::vector<std::pair<Tick, int>> wrapped = round(10, 12);
    expected.insert(expected.end(), wrapped.begin(), wrapped.end());
    EXPECT_EQ(done, expected);
    EXPECT_EQ(b.peakQueueDepth(), 22u);
}

TEST(ChannelTrain, ConservationHoldsAcrossIdleStarts)
{
    // Over a -> b with 50 ns of latency, b (4x faster) goes idle
    // between chunks, so every arrival starts b directly without
    // entering its FIFO. SimCheck re-checks both ledgers at every
    // submit and delivery.
    LogConfig::throwOnError = true;
    const bool was_enabled = simcheck::enabled();
    const std::uint64_t violations = simcheck::violationCount();
    simcheck::setEnabled(true);
    EventQueue eq;
    Channel a(eq, "a", 1e9, 50 * ticksPerNs);
    Channel b(eq, "b", 4e9, 50 * ticksPerNs);
    TestPaths paths;
    TestPath &path = paths.make({&a, &b});
    Tick done = 0;
    path.onComplete = [&] { done = eq.now(); };
    EXPECT_NO_THROW({
        for (int i = 0; i < 8; ++i)
            TestPaths::send(path, 250);
        for (int i = 0; i < 11; ++i)
            eq.step();
        a.simcheckVerifyConservation();
        b.simcheckVerifyConservation();
        eq.run();
    });
    // a serves 250 ns per chunk; the last chunk reaches b at 2050 ns
    // and is delivered 62.5 ns + 50 ns later.
    EXPECT_EQ(done, 2050 * ticksPerNs + transferTicks(250, 4e9)
                        + 50 * ticksPerNs);
    EXPECT_EQ(a.peakQueueDepth(), 7u);
    EXPECT_EQ(b.peakQueueDepth(), 0u); // uncontended: nothing waited
    EXPECT_DOUBLE_EQ(b.bytesTransferred(), 8 * 250.0);
    EXPECT_EQ(b.busyTicks(), 8 * transferTicks(250, 4e9));
    EXPECT_EQ(simcheck::violationCount(), violations);
    simcheck::setEnabled(was_enabled);
    LogConfig::throwOnError = false;
}

// ---------------------------------------------------- channel event order

/** A chunk path over channels a -> b beside plain callbacks that share
    their ticks; every callback appends one line to the log. */
struct TwoHopTrain
{
    EventQueue eq;
    Channel a{eq, "a", 1e9, 5 * ticksPerNs}; // 10 B: 10 ns occupancy
    Channel b{eq, "b", 1e9, 5 * ticksPerNs};
    TestPaths paths;
    TestPath &path = paths.make({&a, &b}, [this] { note("done"); });
    std::vector<std::string> log;

    void
    note(const std::string &what)
    {
        log.push_back(std::to_string(eq.now() / ticksPerNs) + " " + what);
    }

    /** A plain callback: records how many transfers each hop has
        started (an xfer_done starts the next one). */
    void
    plain(Tick when, const char *tag)
    {
        eq.schedule(when, [this, tag] {
            note(std::string(tag) + " a"
                 + std::to_string(static_cast<int>(a.bytesTransferred()))
                 + " b"
                 + std::to_string(
                     static_cast<int>(b.bytesTransferred())));
        });
    }

    /** Submit @p chunks 10 B chunks on a -> b. */
    void
    send(int chunks)
    {
        for (int i = 0; i < chunks; ++i)
            TestPaths::send(path, 10);
    }
};

TEST(ChannelEventOrder, PlainCallbacksInterleaveWithATwoHopTrain)
{
    TwoHopTrain train;
    train.send(3);
    for (Tick t = 10; t <= 50; t += 5)
        train.plain(t * ticksPerNs, "p");
    train.eq.run();
    // Same-tick events fire in the order they were scheduled, the
    // channels' own included. At 10, a's first xfer_done (scheduled by
    // the submit) leads p; at 15, p leads the chunk's arrival on b
    // (its seq was reserved by a's xfer_done at 10); at 20, p leads
    // a's second xfer_done. The path completes at b's last delivery,
    // after p (scheduled first).
    const std::vector<std::string> expected{
        "10 p a20 b0",  "15 p a20 b0",  "20 p a20 b10",
        "25 p a30 b10", "30 p a30 b20", "35 p a30 b20",
        "40 p a30 b30", "45 p a30 b30", "50 p a30 b30",
        "50 done"};
    EXPECT_EQ(train.log, expected);
    // Each chunk: a's xfer_done, its arrival starting idle b (b frees
    // at the tick the next arrives, but its own xfer_done comes
    // first), b's xfer_done; then one completion.
    EXPECT_EQ(train.eq.executedCount(), 9u + 3 * 3 + 1);
}

TEST(ChannelEventOrder, PipelineTieStartsThroughAnArriveEvent)
{
    // The ring-pipeline tie: chunk 2 reaches b at 25, the tick b's
    // xfer_done for chunk 1 fires, and that xfer_done was scheduled
    // (at 15) before a reserved the arrival's seq (at 20). So b goes
    // idle first and the armed arrival restarts it.
    TwoHopTrain train;
    DesProfiler profiler;
    train.eq.setProfiler(&profiler);
    train.send(2);
    train.plain(25 * ticksPerNs, "p"); // scheduled before both
    train.plain(26 * ticksPerNs, "p");
    train.eq.run();
    const std::vector<std::string> expected{"25 p a20 b10", "26 p a20 b20",
                                            "40 done"};
    EXPECT_EQ(train.log, expected);
    const auto &labels = profiler.labels();
    EXPECT_EQ(labels.at("a.xfer_done").count, 2u);
    EXPECT_EQ(labels.at("b.xfer_done").count, 2u);
    // The arrivals keep the name of the deliveries they stand for.
    EXPECT_EQ(labels.at("a.deliver").count, 2u);
    // b's deliveries are the path's; only the last is an event.
    EXPECT_EQ(labels.at("b.deliver").count, 1u);
    EXPECT_EQ(train.eq.executedCount(), 2u + 7);
    EXPECT_EQ(profiler.schedules(), 2u + 7);
}

TEST(ChannelEventOrder, ArrivalAndSubmitOfOneTickQueueInSeqOrder)
{
    // b is busy until 100 ns. A chunk over a -> b reaches it at 15 ns
    // with the seq a reserved at 10 ns; a plain callback submits
    // another chunk to b at 15 ns, scheduled before or after that
    // reservation. b then serves them in seq order.
    for (const bool submit_first : {true, false}) {
        EventQueue eq;
        Channel a(eq, "a", 1e9, 5 * ticksPerNs);
        Channel b(eq, "b", 1e9, 0);
        TestPaths paths;
        std::vector<std::string> order;
        paths.send({&b}, 100, [&] { order.push_back("blocker"); });
        paths.send({&a, &b}, 10, [&] { order.push_back("arrival"); });
        TestPath &direct =
            paths.make({&b}, [&] { order.push_back("submit"); });
        std::size_t depth_before = 0;
        auto submit = [&] {
            depth_before = b.queueDepth();
            TestPaths::send(direct, 10);
        };
        if (submit_first)
            eq.schedule(15 * ticksPerNs, submit);
        else
            eq.schedule(12 * ticksPerNs,
                        [&] { eq.schedule(15 * ticksPerNs, submit); });
        eq.run();
        const std::vector<std::string> expected =
            submit_first
                ? std::vector<std::string>{"blocker", "submit", "arrival"}
                : std::vector<std::string>{"blocker", "arrival", "submit"};
        EXPECT_EQ(order, expected) << submit_first;
        EXPECT_EQ(depth_before, submit_first ? 0u : 1u) << submit_first;
        EXPECT_EQ(b.peakQueueDepth(), 2u) << submit_first;
    }
}

TEST(ChannelEventOrder, FlowCompletesAtItsLatestDeliveryNotItsLastChunk)
{
    // Two legs: the slow link's chunk finishes its occupancy first (at
    // 100 ns) but lands last (at 600 ns); the fast link's finishes at
    // 300 ns, is counted off last, and lands at 400 ns.
    EventQueue eq;
    Channel slow(eq, "slow", 1e9, 500 * ticksPerNs);
    Channel fast(eq, "fast", 1e9, 100 * ticksPerNs);
    FlowPool flows;
    const std::vector<Route> slow_route{Route{{&slow}}};
    const std::vector<Route> fast_route{Route{{&fast}}};
    const FlowLeg legs[] = {{&slow_route, 100}, {&fast_route, 300}};
    Tick done = 0;
    DesProfiler profiler;
    eq.setProfiler(&profiler);
    flows.send(legs, 2, 1e3, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 600 * ticksPerNs);
    // Two xfer_dones and the completion, named for the slow link.
    EXPECT_EQ(eq.executedCount(), 3u);
    EXPECT_EQ(profiler.labels().at("slow.deliver").count, 1u);
}

TEST(ChannelEventOrder, QueueDepthCountsDueArrivals)
{
    // b is busy until 100 ns while three chunks reach it from a at 15,
    // 25 and 35 ns: none of those deliveries is an event, yet a plain
    // callback at 40 ns sees all three queued, as one train.
    EventQueue eq;
    Channel a(eq, "a", 1e9, 5 * ticksPerNs);
    Channel b(eq, "b", 1e9, 5 * ticksPerNs);
    TestPaths paths;
    paths.send({&b}, 100);
    TestPath &path = paths.make({&a, &b});
    for (int i = 0; i < 3; ++i)
        TestPaths::send(path, 10);
    std::size_t depth = 0, trains = 0, peak = 0;
    eq.schedule(40 * ticksPerNs, [&] {
        depth = b.queueDepth();
        trains = b.queueTrains();
        peak = b.peakQueueDepth();
    });
    eq.run();
    EXPECT_EQ(depth, 3u);
    EXPECT_EQ(trains, 1u);
    EXPECT_EQ(peak, 3u);
}

TEST(ChannelEventOrder, ChunksTakeNoPayloadSlots)
{
    TwoHopTrain train;
    train.send(10000);
    train.eq.run();
    EXPECT_EQ(train.log, (std::vector<std::string>{"100020 done"}));
    // Per chunk: a's xfer_done, the arrival that restarts b (the
    // pipeline tie above) and b's xfer_done; b's deliveries are not
    // events, save the path's completion.
    EXPECT_EQ(train.eq.executedCount(), 3u * 10000 + 1);
    // Only the completion is a callback event.
    EXPECT_EQ(train.eq.poolSlots(), 1u);
}

TEST(ChannelEventOrder, ZeroLatencyDeliversInsideXferDone)
{
    EventQueue eq;
    Channel ch(eq, "z", 1e9, 0);
    DesProfiler profiler;
    eq.setProfiler(&profiler);
    TestPaths paths;
    std::vector<std::pair<Tick, std::uint64_t>> deliveries;
    for (int i = 0; i < 4; ++i)
        paths.send({&ch}, 10, [&] {
            // Runs inside the xfer_done it belongs to: that event is
            // executing and counts already.
            deliveries.emplace_back(eq.now() / ticksPerNs,
                                    eq.executedCount());
        });
    eq.run();
    const std::vector<std::pair<Tick, std::uint64_t>> expected{
        {10, 1}, {20, 2}, {30, 3}, {40, 4}};
    EXPECT_EQ(deliveries, expected);
    EXPECT_EQ(profiler.labels().count("z.deliver"), 0u);
    EXPECT_EQ(profiler.labels().at("z.xfer_done").count, 4u);
}

// ------------------------------------------------------------------ flow

TEST(Flow, SingleRouteDeliversOnce)
{
    EventQueue eq;
    Channel a(eq, "a", 1e9, 0);
    Channel b(eq, "b", 1e9, 0);
    FlowPool flows;
    int done = 0;
    flows.send({Route{{&a, &b}}}, 10e3, 1e3, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_DOUBLE_EQ(a.bytesTransferred(), 10e3);
    EXPECT_DOUBLE_EQ(b.bytesTransferred(), 10e3);
}

TEST(Flow, ParallelRoutesSplitTraffic)
{
    EventQueue eq;
    Channel a(eq, "a", 1e9, 0);
    Channel b(eq, "b", 1e9, 0);
    FlowPool flows;
    bool done = false;
    flows.send({Route{{&a}}, Route{{&b}}}, 10e3, 1e3,
               [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(a.bytesTransferred(), 5e3);
    EXPECT_DOUBLE_EQ(b.bytesTransferred(), 5e3);
}

TEST(Flow, TwoRoutesHalveCompletionTime)
{
    // Each measurement runs on a fresh queue.
    const auto completion = [](int routes) {
        EventQueue eq;
        Channel a(eq, "a", 1e9, 0);
        Channel b(eq, "b", 1e9, 0);
        FlowPool flows;
        std::vector<Route> paths{Route{{&a}}};
        if (routes == 2)
            paths.push_back(Route{{&b}});
        Tick done = 0;
        flows.send(paths, 1e6, 1e4, [&] { done = eq.now(); });
        eq.run();
        return done;
    };
    const Tick one_route = completion(1);
    const Tick two_routes = completion(2);
    EXPECT_NEAR(static_cast<double>(two_routes),
                static_cast<double>(one_route) / 2.0,
                static_cast<double>(one_route) * 0.05);
}

TEST(Flow, StoreAndForwardPipelines)
{
    // A two-hop route with chunking should take ~bytes/bw + chunk time,
    // not 2x bytes/bw.
    EventQueue eq;
    Channel a(eq, "a", 1e9, 0);
    Channel b(eq, "b", 1e9, 0);
    FlowPool flows;
    Tick done = 0;
    flows.send({Route{{&a, &b}}}, 1e6, 1e4, [&] { done = eq.now(); });
    eq.run();
    const double base = 1e6 / 1e9; // 1 ms wire time per hop
    EXPECT_LT(ticksToSeconds(done), base * 1.1);
    EXPECT_GT(ticksToSeconds(done), base * 0.99);
}

TEST(Flow, ZeroBytesCompletesImmediately)
{
    EventQueue eq;
    Channel a(eq, "a", 1e9, 0);
    FlowPool flows;
    bool done = false;
    flows.send({Route{{&a}}}, 0.0, 1e3, [&] { done = true; });
    EXPECT_TRUE(done);
}

TEST(Flow, LegsCompleteOnceAtTheLastDelivery)
{
    // Alone, each leg finishes at its own tick; as two legs of one flow
    // on separate channels, the single completion lands where the
    // larger leg finishes. Each measurement runs on a fresh queue.
    auto alone = [](double bytes) {
        EventQueue eq;
        Channel c(eq, "c", 1e9, 0);
        FlowPool flows;
        Tick done = 0;
        flows.send({Route{{&c}}}, bytes, 1e4, [&] { done = eq.now(); });
        eq.run();
        return done;
    };
    const Tick small_alone = alone(2e5);
    const Tick large_alone = alone(6e5);
    ASSERT_LT(small_alone, large_alone);

    EventQueue eq;
    Channel a(eq, "a", 1e9, 0);
    Channel b(eq, "b", 1e9, 0);
    const std::vector<Route> small{Route{{&a}}};
    const std::vector<Route> large{Route{{&b}}};
    const FlowLeg legs[] = {{&large, 6e5}, {&small, 2e5}};
    FlowPool flows;
    int fired = 0;
    Tick done = 0;
    flows.send(legs, 2, 1e4, [&] {
        ++fired;
        done = eq.now();
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(done, large_alone);
    EXPECT_DOUBLE_EQ(a.bytesTransferred(), 2e5);
    EXPECT_DOUBLE_EQ(b.bytesTransferred(), 6e5);
}

// ------------------------------------------------------ fabric builders

FabricConfig
testConfig(int devices = 8)
{
    FabricConfig cfg;
    cfg.numDevices = devices;
    return cfg;
}

std::multiset<int>
stageCounts(const Fabric &fab)
{
    std::multiset<int> counts;
    for (const RingPath &ring : fab.rings())
        counts.insert(ring.stageCount());
    return counts;
}

TEST(Fabrics, DcdlaHasSixDeviceRingsOfEight)
{
    EventQueue eq;
    auto fab = buildDcdlaFabric(eq, testConfig());
    // 3 bidirectional rings -> 6 logical unidirectional rings.
    ASSERT_EQ(fab->rings().size(), 6u);
    for (const RingPath &ring : fab->rings()) {
        EXPECT_EQ(ring.stageCount(), 8);
        EXPECT_EQ(ring.physicalHopCount(), 8);
        EXPECT_EQ(ring.deviceMembers().size(), 8u);
    }
}

TEST(Fabrics, DcdlaVmemPathGoesThroughPcieAndSocket)
{
    EventQueue eq;
    auto fab = buildDcdlaFabric(eq, testConfig());
    for (int d = 0; d < 8; ++d) {
        const auto &paths = fab->vmemPaths(d);
        ASSERT_EQ(paths.size(), 1u);
        EXPECT_EQ(paths[0].targetIndex, -1);
        ASSERT_EQ(paths[0].writeRoutes.size(), 1u);
        EXPECT_EQ(paths[0].writeRoutes[0].hops.size(), 2u);
        ASSERT_EQ(paths[0].readRoutes.size(), 1u);
    }
    EXPECT_EQ(fab->socketChannels().size(), 2u);
}

TEST(Fabrics, DcdlaOracleHasNoVmemPaths)
{
    EventQueue eq;
    auto fab = buildDcdlaFabric(eq, testConfig(), false);
    for (int d = 0; d < 8; ++d)
        EXPECT_TRUE(fab->vmemPaths(d).empty());
}

TEST(Fabrics, HcdlaDeviceRingBudgetIsHalved)
{
    EventQueue eq;
    auto fab = buildHcdlaFabric(eq, testConfig());
    // Two logical ring pairs; the second pair multiplexes odd hops.
    ASSERT_EQ(fab->rings().size(), 4u);
    for (const RingPath &ring : fab->rings())
        EXPECT_EQ(ring.stageCount(), 8);
    // Three host links per device for vmem.
    for (int d = 0; d < 8; ++d) {
        const auto &paths = fab->vmemPaths(d);
        ASSERT_EQ(paths.size(), 1u);
        EXPECT_EQ(paths[0].writeRoutes.size(), 3u);
        EXPECT_EQ(paths[0].readRoutes.size(), 3u);
    }
}

TEST(Fabrics, HcdlaSecondRingSharesOddHopChannels)
{
    EventQueue eq;
    auto fab = buildHcdlaFabric(eq, testConfig());
    const RingPath &r0 = fab->rings()[0];
    const RingPath &r2 = fab->rings()[2];
    int shared = 0;
    for (int i = 0; i < 8; ++i) {
        if (r0.hops[static_cast<std::size_t>(i)].hops[0]
            == r2.hops[static_cast<std::size_t>(i)].hops[0])
            ++shared;
    }
    EXPECT_EQ(shared, 4); // odd edges have a single physical link
}

TEST(Fabrics, McdlaRingHasSixteenStageRings)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    ASSERT_EQ(fab->rings().size(), 6u);
    for (const RingPath &ring : fab->rings()) {
        // Fig 7(c): D and M alternate; 16 stages, each a physical hop.
        EXPECT_EQ(ring.stageCount(), 16);
        EXPECT_EQ(ring.physicalHopCount(), 16);
        EXPECT_EQ(ring.deviceMembers().size(), 8u);
        int devices = 0, memories = 0;
        for (const RingStage &s : ring.stages)
            (s.isDevice ? devices : memories)++;
        EXPECT_EQ(devices, 8);
        EXPECT_EQ(memories, 8);
    }
}

TEST(Fabrics, McdlaRingVmemEngagesBothNeighbors)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    for (int d = 0; d < 8; ++d) {
        const auto &paths = fab->vmemPaths(d);
        ASSERT_EQ(paths.size(), 2u);
        // Right neighbor is M_d, left is M_{d-1}.
        EXPECT_EQ(paths[0].targetIndex, d);
        EXPECT_EQ(paths[1].targetIndex, (d + 7) % 8);
        // numRings (3) parallel routes per target: N*B/2 per side.
        EXPECT_EQ(paths[0].writeRoutes.size(), 3u);
        EXPECT_EQ(paths[1].writeRoutes.size(), 3u);
        // Writes traverse link then DIMM bus.
        EXPECT_EQ(paths[0].writeRoutes[0].hops.size(), 2u);
    }
    EXPECT_EQ(fab->memNodeChannels().size(), 8u);
}

TEST(Fabrics, McdlaStarRingStagesMatchFig7b)
{
    EventQueue eq;
    auto fab = buildMcdlaStarFabric(eq, testConfig());
    // Fig 7(b): rings of 8, 12, and 20 hops (both directions each).
    EXPECT_EQ(stageCounts(*fab),
              (std::multiset<int>{8, 8, 12, 12, 20, 20}));
}

TEST(Fabrics, McdlaStarVmemUsesTwoDesignatedLinks)
{
    EventQueue eq;
    auto fab = buildMcdlaStarFabric(eq, testConfig());
    for (int d = 0; d < 8; ++d) {
        const auto &paths = fab->vmemPaths(d);
        ASSERT_EQ(paths.size(), 1u);
        EXPECT_EQ(paths[0].targetIndex, d);
        EXPECT_EQ(paths[0].writeRoutes.size(), 2u); // 50 GB/s
    }
}

TEST(Fabrics, McdlaStarAStagesMatchFig7a)
{
    EventQueue eq;
    auto fab = buildMcdlaStarAFabric(eq, testConfig());
    // Fig 7(a): two 8-hop device rings and the 24-hop black ring
    // (memory-nodes visited twice), both directions each.
    EXPECT_EQ(stageCounts(*fab),
              (std::multiset<int>{8, 8, 8, 8, 24, 24}));
}

TEST(Fabrics, StarABlackRingVisitsEveryMemoryNodeTwice)
{
    EventQueue eq;
    auto fab = buildMcdlaStarAFabric(eq, testConfig());
    for (const RingPath &ring : fab->rings()) {
        if (ring.stageCount() != 24)
            continue;
        std::map<int, int> visits;
        for (const RingStage &s : ring.stages)
            if (!s.isDevice)
                ++visits[s.index];
        ASSERT_EQ(visits.size(), 8u);
        for (const auto &[node, count] : visits)
            EXPECT_EQ(count, 2) << "memory node " << node;
    }
}

TEST(Fabrics, RingsScaleToFourDevices)
{
    EventQueue eq;
    auto dc = buildDcdlaFabric(eq, testConfig(4));
    for (const RingPath &ring : dc->rings())
        EXPECT_EQ(ring.stageCount(), 4);
    auto mc = buildMcdlaRingFabric(eq, testConfig(4));
    for (const RingPath &ring : mc->rings())
        EXPECT_EQ(ring.stageCount(), 8);
}

TEST(Fabrics, SingleDeviceMcdlaHasNoRingsButVmemWorks)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig(1));
    EXPECT_TRUE(fab->rings().empty());
    // All N=6 links land on the single memory-node.
    EXPECT_EQ(fab->vmemPaths(0).size(), 1u);
    EXPECT_EQ(fab->vmemPaths(0)[0].writeRoutes.size(), 6u);
    EXPECT_EQ(fab->vmemPaths(0)[0].readRoutes.size(), 6u);
}

TEST(Fabrics, StageOfDeviceLookup)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    const RingPath &ring = fab->rings()[0];
    EXPECT_EQ(ring.stageOfDevice(0), 0);
    EXPECT_EQ(ring.stageOfDevice(1), 2); // M0 sits between D0 and D1
    EXPECT_EQ(ring.stageOfDevice(99), -1);
}

TEST(Fabrics, HostBytesAccounting)
{
    EventQueue eq;
    auto fab = buildDcdlaFabric(eq, testConfig());
    const auto &path = fab->vmemPaths(0)[0];
    FlowPool flows;
    flows.send(path.writeRoutes, 1e6, 1e5, nullptr);
    eq.run();
    EXPECT_DOUBLE_EQ(fab->hostBytes(), 1e6);
}

} // anonymous namespace
} // namespace mcdla
