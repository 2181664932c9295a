/**
 * @file
 * Unit tests for the interconnect: channels, flows, and the fabric
 * builders' ring/hop-count properties from Section III-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(Channel, TransferTakesBytesOverBandwidth)
{
    EventQueue eq;
    Channel ch(eq, "c", 25.0 * kGB, 0);
    Tick done = 0;
    ch.submit(25e9, [&] { done = eq.now(); }); // exactly one second
    eq.run();
    EXPECT_EQ(done, ticksPerSec);
    EXPECT_DOUBLE_EQ(ch.bytesTransferred(), 25e9);
}

TEST(Channel, LatencyDelaysDeliveryNotOccupancy)
{
    EventQueue eq;
    const Tick lat = 500 * ticksPerNs;
    Channel ch(eq, "c", 1e9, lat);
    Tick first = 0, second = 0;
    ch.submit(1e3, [&] { first = eq.now(); });  // 1 us occupancy
    ch.submit(1e3, [&] { second = eq.now(); });
    eq.run();
    EXPECT_EQ(first, ticksPerUs + lat);
    // Back-to-back: second transfer starts at 1 us, not after delivery.
    EXPECT_EQ(second, 2 * ticksPerUs + lat);
}

TEST(Channel, FifoOrdering)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    std::vector<int> order;
    ch.submit(100, [&] { order.push_back(1); });
    ch.submit(100, [&] { order.push_back(2); });
    ch.submit(100, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, BusyTicksAccumulate)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    ch.submit(1e3, nullptr);
    ch.submit(1e3, nullptr);
    eq.run();
    EXPECT_EQ(ch.busyTicks(), 2 * ticksPerUs);
    EXPECT_NEAR(ch.utilization(2 * ticksPerUs), 1.0, 1e-9);
}

TEST(Channel, PeakTrackingMeasuresSaturatedWindow)
{
    EventQueue eq;
    Channel ch(eq, "c", 10.0 * kGB, 0);
    ch.enablePeakTracking(100 * ticksPerUs);
    // Saturate for 1 ms: peak windowed bandwidth == channel bandwidth.
    for (int i = 0; i < 100; ++i)
        ch.submit(100e3, nullptr); // 10 MB total over 1 ms
    eq.run();
    EXPECT_NEAR(ch.peakBandwidth(), 10.0 * kGB, 0.15 * 10.0 * kGB);
}

TEST(Channel, ResetStatsClearsCounters)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    ch.submit(1e3, nullptr);
    eq.run();
    ch.resetStats();
    EXPECT_DOUBLE_EQ(ch.bytesTransferred(), 0.0);
    EXPECT_EQ(ch.busyTicks(), 0u);
}

TEST(Channel, QueueDepthVisible)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    ch.submit(1e3, nullptr);
    ch.submit(1e3, nullptr);
    ch.submit(1e3, nullptr);
    EXPECT_EQ(ch.queueDepth(), 2u); // one in flight, two queued
    eq.run();
    EXPECT_EQ(ch.queueDepth(), 0u);
}

// --------------------------------------------------------- channel trains

/** A comparable delivery closure: equal probes merge into one FIFO
    train; it logs the delivery tick and its tag. */
struct Probe
{
    const EventQueue *eq;
    std::vector<std::pair<Tick, int>> *log;
    int tag;

    void operator()() const { log->emplace_back(eq->now(), tag); }

    bool
    operator==(const Probe &other) const
    {
        return eq == other.eq && log == other.log && tag == other.tag;
    }
};

static_assert(Channel::Handler::comparable<Probe>(),
              "Probe must opt in to channel trains");

/** Per-step observations of one channel under a submit pattern. */
struct TrainRun
{
    std::vector<std::pair<Tick, int>> deliveries;
    std::vector<std::size_t> depths; ///< queueDepth() after every event
    std::size_t maxTrains = 0;
    std::size_t peakDepth = 0;
    double bytes = 0.0;
    double transfers = 0.0;
};

/** Submit @p tags as 1 KB transfers on one channel (comparable probes
    or, with @p lambdas, plain lambdas that never merge) and run. */
TrainRun
runTrain(const std::vector<int> &tags, bool lambdas)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 300 * ticksPerNs);
    TrainRun run;
    for (int tag : tags) {
        if (lambdas)
            ch.submit(1e3, [&eq, &run, tag] {
                run.deliveries.emplace_back(eq.now(), tag);
            });
        else
            ch.submit(1e3, Probe{&eq, &run.deliveries, tag});
        run.maxTrains = std::max(run.maxTrains, ch.queueTrains());
        run.depths.push_back(ch.queueDepth());
    }
    while (eq.step()) {
        run.maxTrains = std::max(run.maxTrains, ch.queueTrains());
        run.depths.push_back(ch.queueDepth());
    }
    run.peakDepth = ch.peakQueueDepth();
    run.bytes = ch.stats().value("bytes");
    run.transfers = ch.stats().value("transfers");
    return run;
}

void
expectSameChannelBehaviour(const TrainRun &trains, const TrainRun &plain)
{
    EXPECT_EQ(trains.deliveries, plain.deliveries);
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
    // The burst really is one train; the lambdas never merged.
    EXPECT_EQ(trains.maxTrains, 1u);
    EXPECT_EQ(plain.maxTrains, 63u);
    EXPECT_EQ(trains.peakDepth, 63u);
    ASSERT_EQ(trains.deliveries.size(), 64u);
    // 1 us per transfer back to back, plus the wire latency.
    EXPECT_EQ(trains.deliveries.back().first,
              64 * ticksPerUs + 300 * ticksPerNs);
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
    for (const auto &delivery : trains.deliveries)
        order.push_back(delivery.second);
    EXPECT_EQ(order, tags);
    // The first A starts at once; {A,A} {B} {A,A} {B,B} wait.
    EXPECT_EQ(trains.maxTrains, 4u);
}

TEST(ChannelTrain, EqualClosuresOfDifferentSizeDoNotMerge)
{
    EventQueue eq;
    Channel ch(eq, "c", 1e9, 0);
    std::vector<std::pair<Tick, int>> log;
    const Probe probe{&eq, &log, 1};
    ch.submit(100, probe); // starts at once
    ch.submit(100, probe);
    ch.submit(200, probe);
    ch.submit(100, probe);
    EXPECT_EQ(ch.queueDepth(), 3u);
    EXPECT_EQ(ch.queueTrains(), 3u);
    eq.run();
    const std::vector<std::pair<Tick, int>> expected{
        {100 * ticksPerNs, 1},
        {200 * ticksPerNs, 1},
        {400 * ticksPerNs, 1},
        {500 * ticksPerNs, 1}};
    EXPECT_EQ(log, expected);
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
    std::vector<std::pair<Tick, int>> log;
    // Every submit and delivery re-checks the ledger against the
    // trains' bytes x count.
    EXPECT_NO_THROW({
        for (int i = 0; i < 40; ++i)
            ch.submit(250, Probe{&eq, &log, i / 16});
        for (int i = 0; i < 25; ++i)
            eq.step();
        EXPECT_GT(ch.queueDepth(), ch.queueTrains());
        ch.simcheckVerifyConservation();
        eq.run();
    });
    EXPECT_EQ(log.size(), 40u);
    EXPECT_EQ(simcheck::violationCount(), violations);
    simcheck::setEnabled(was_enabled);
    LogConfig::throwOnError = false;
}

// ---------------------------------------------------- channel event order

/** A chunk train over channels a -> b beside plain callbacks that
    share their ticks; every callback appends one line to the log. */
struct TwoHopTrain
{
    EventQueue eq;
    Channel a{eq, "a", 1e9, 5 * ticksPerNs}; // 10 B: 10 ns occupancy
    Channel b{eq, "b", 1e9, 5 * ticksPerNs};
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
};

/** One hop of a train chunk: comparable, so a's queue is one train. */
struct TrainHop
{
    TwoHopTrain *train;
    int hop;

    void
    operator()() const
    {
        train->note(hop == 0 ? "a>" : "b>");
        train->plain(train->eq.now() + 5 * ticksPerNs, "q");
        if (hop == 0)
            train->b.submit(10, TrainHop{train, 1});
    }

    bool
    operator==(const TrainHop &other) const
    {
        return train == other.train && hop == other.hop;
    }
};

static_assert(Channel::Handler::comparable<TrainHop>(),
              "TrainHop must merge into channel trains");

TEST(ChannelEventOrder, PlainCallbacksInterleaveWithATwoHopTrain)
{
    TwoHopTrain train;
    for (int i = 0; i < 3; ++i)
        train.a.submit(10, TrainHop{&train, 0});
    for (Tick t = 10; t <= 50; t += 5)
        train.plain(t * ticksPerNs, "p");
    train.eq.run();
    // Same-tick events fire in the order they were scheduled, the
    // channels' own included. At 10, a's first xfer_done (scheduled by
    // the submit) leads p; at 20, p leads a's second xfer_done
    // (scheduled at 10), which leads q (scheduled at 15); at 30, b's
    // deliver (scheduled by its xfer_done at 25) leads q (scheduled
    // by a's deliver at 25).
    const std::vector<std::string> expected{
        "10 p a20 b0",  "15 p a20 b0",  "15 a>",        "20 p a20 b10",
        "20 q a30 b10", "25 p a30 b10", "25 a>",        "30 p a30 b20",
        "30 b>",        "30 q a30 b20", "35 p a30 b20", "35 a>",
        "35 q a30 b30", "40 p a30 b30", "40 b>",        "40 q a30 b30",
        "45 p a30 b30", "45 q a30 b30", "50 p a30 b30", "50 b>",
        "55 q a30 b30"};
    EXPECT_EQ(train.log, expected);
}

TEST(ChannelEventOrder, UnobservedTransfersTakeNoPayloadSlots)
{
    TwoHopTrain train;
    int delivered = 0;
    for (int i = 0; i < 10000; ++i)
        train.a.submit(10, [&train, &delivered] {
            train.b.submit(10, [&delivered] { ++delivered; });
        });
    train.eq.run();
    EXPECT_EQ(delivered, 10000);
    // Two hops, each an xfer_done and a deliver per transfer.
    EXPECT_EQ(train.eq.executedCount(), 40000u);
    EXPECT_EQ(train.eq.poolSlots(), 0u);
}

TEST(ChannelEventOrder, ProfilerCountsEachTransfersTwoEvents)
{
    TwoHopTrain train;
    DesProfiler profiler;
    train.eq.setProfiler(&profiler);
    for (int i = 0; i < 3; ++i)
        train.a.submit(10, TrainHop{&train, 0});
    train.eq.run();
    const auto &labels = profiler.labels();
    for (const char *label : {"a.xfer_done", "a.deliver", "b.xfer_done",
                              "b.deliver"}) {
        ASSERT_EQ(labels.count(label), 1u) << label;
        EXPECT_EQ(labels.at(label).count, 3u) << label;
    }
    // Plus the unlabelled q callback of each of the 6 deliveries.
    EXPECT_EQ(labels.at("(unnamed)").count, 6u);
    EXPECT_EQ(profiler.eventsExecuted(), 18u);
    EXPECT_EQ(profiler.schedules(), 18u);
}

TEST(ChannelEventOrder, ZeroLatencyDeliversInsideXferDone)
{
    EventQueue eq;
    Channel ch(eq, "z", 1e9, 0);
    DesProfiler profiler;
    eq.setProfiler(&profiler);
    std::vector<std::pair<Tick, std::uint64_t>> deliveries;
    for (int i = 0; i < 4; ++i)
        ch.submit(10, [&] {
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
    EventQueue eq;
    Channel a(eq, "a", 1e9, 0);
    Channel b(eq, "b", 1e9, 0);
    FlowPool flows;
    Tick one_route = 0, two_routes = 0;
    flows.send({Route{{&a}}}, 1e6, 1e4, [&] { one_route = eq.now(); });
    eq.run();
    eq.reset();
    Channel c(eq, "c", 1e9, 0);
    Channel d(eq, "d", 1e9, 0);
    flows.send({Route{{&c}}, Route{{&d}}}, 1e6, 1e4,
               [&] { two_routes = eq.now(); });
    eq.run();
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
    // larger leg finishes.
    EventQueue eq;
    FlowPool flows;
    auto alone = [&](double bytes) {
        eq.reset();
        Channel c(eq, "c", 1e9, 0);
        Tick done = 0;
        flows.send({Route{{&c}}}, bytes, 1e4, [&] { done = eq.now(); });
        eq.run();
        return done;
    };
    const Tick small_alone = alone(2e5);
    const Tick large_alone = alone(6e5);
    ASSERT_LT(small_alone, large_alone);

    eq.reset();
    Channel a(eq, "a", 1e9, 0);
    Channel b(eq, "b", 1e9, 0);
    const std::vector<Route> small{Route{{&a}}};
    const std::vector<Route> large{Route{{&b}}};
    const FlowLeg legs[] = {{&large, 6e5}, {&small, 2e5}};
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
