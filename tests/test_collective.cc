/**
 * @file
 * Unit and property tests for ring collectives: DES vs the analytic
 * model, the Figure 9 scaling behaviour (including the paper's ~7%
 * all-reduce overhead at 16 vs 8 ring stages), and contention.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "collective/ring_collective.hh"
#include "interconnect/fabric.hh"
#include "interconnect/fabrics.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

/** Build a fabric with one uniform unidirectional ring of @p stages. */
std::unique_ptr<Fabric>
uniformRing(EventQueue &eq, int stages, double bw, Tick latency)
{
    auto fab = std::make_unique<Fabric>(eq, "ring" + std::to_string(
        stages));
    RingPath ring;
    for (int i = 0; i < stages; ++i) {
        ring.stages.push_back(RingStage{true, i});
        Channel &ch = fab->makeChannel(
            "hop" + std::to_string(i), bw, latency);
        ring.hops.push_back(Route{{&ch}});
    }
    fab->addRing(std::move(ring));
    return fab;
}

/** Run one collective on a uniform ring and return its latency. */
Tick
measure(CollectiveKind kind, int stages, double bytes,
        double chunk = 4096.0, double bw = 25.0 * kGB,
        Tick latency = 500 * ticksPerNs)
{
    EventQueue eq;
    auto fab = uniformRing(eq, stages, bw, latency);
    CollectiveConfig cfg;
    cfg.chunkBytes = chunk;
    CollectiveEngine engine(eq, "nccl", *fab, cfg);
    Tick done = 0;
    engine.launch(kind, bytes, [&] { done = eq.now(); });
    eq.run();
    EXPECT_GT(done, 0u);
    return done;
}

// ------------------------------------------------------------ basics

TEST(Collective, KindNames)
{
    EXPECT_STREQ(collectiveKindName(CollectiveKind::AllReduce),
                 "all-reduce");
    EXPECT_STREQ(collectiveKindName(CollectiveKind::AllGather),
                 "all-gather");
    EXPECT_STREQ(collectiveKindName(CollectiveKind::ReduceScatter),
                 "reduce-scatter");
    EXPECT_STREQ(collectiveKindName(CollectiveKind::Broadcast),
                 "broadcast");
}

TEST(Collective, ZeroBytesCompletesImmediately)
{
    EventQueue eq;
    auto fab = uniformRing(eq, 8, 25.0 * kGB, 0);
    CollectiveEngine engine(eq, "nccl", *fab);
    bool done = false;
    engine.launch(CollectiveKind::AllReduce, 0.0, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(engine.opsCompleted(), 1u);
}

TEST(Collective, NoRingsStillCompletes)
{
    EventQueue eq;
    Fabric fab(eq, "empty");
    CollectiveEngine engine(eq, "nccl", fab);
    bool done = false;
    engine.launch(CollectiveKind::AllReduce, 1e6, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

TEST(Collective, TracksLaunchedBytesAndOps)
{
    EventQueue eq;
    auto fab = uniformRing(eq, 4, 25.0 * kGB, 0);
    CollectiveEngine engine(eq, "nccl", *fab);
    engine.launch(CollectiveKind::AllGather, 1e6, nullptr);
    engine.launch(CollectiveKind::AllReduce, 2e6, nullptr);
    eq.run();
    EXPECT_DOUBLE_EQ(engine.bytesLaunched(), 3e6);
    EXPECT_EQ(engine.opsCompleted(), 2u);
}

TEST(Collective, MoveOnlyCompletion)
{
    EventQueue eq;
    auto fab = uniformRing(eq, 4, 25.0 * kGB, 0);
    CollectiveEngine engine(eq, "nccl", *fab);
    auto owned = std::make_unique<int>(7);
    int seen = 0;
    engine.launch(CollectiveKind::AllReduce, 1e6,
                  [&seen, owned = std::move(owned)] { seen = *owned; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST(Collective, MalformedRingsAreRejected)
{
    // A ring needs one non-empty route per stage.
    LogConfig::throwOnError = true;
    EventQueue eq;
    Fabric fab(eq, "bad");
    Channel &ch = fab.makeChannel("hop", 25.0 * kGB, 0);
    CollectiveEngine engine(eq, "nccl", fab);

    RingPath missing;
    missing.stages = {RingStage{true, 0}, RingStage{true, 1},
                      RingStage{true, 2}};
    missing.hops = {Route{{&ch}}, Route{{&ch}}};
    EXPECT_THROW(engine.launchOn({&missing}, CollectiveKind::AllReduce,
                                 1e6, nullptr),
                 FatalError);

    RingPath empty;
    empty.stages = {RingStage{true, 0}, RingStage{true, 1}};
    empty.hops = {Route{{&ch}}, Route{}};
    EXPECT_THROW(engine.launchOn({&empty}, CollectiveKind::AllGather,
                                 1e6, nullptr),
                 FatalError);
    LogConfig::throwOnError = false;
    EXPECT_EQ(ch.bytesTransferred(), 0.0);
}

// --------------------------------------------- bandwidth-term behaviour

TEST(Collective, AllReduceCostsTwiceAllGather)
{
    const Tick ag = measure(CollectiveKind::AllGather, 8, 8e6, 64e3);
    const Tick ar = measure(CollectiveKind::AllReduce, 8, 8e6, 64e3);
    EXPECT_NEAR(static_cast<double>(ar), 2.0 * static_cast<double>(ag),
                0.15 * static_cast<double>(ar));
}

TEST(Collective, ReduceScatterMatchesAllGather)
{
    const Tick ag = measure(CollectiveKind::AllGather, 8, 8e6, 64e3);
    const Tick rs = measure(CollectiveKind::ReduceScatter, 8, 8e6, 64e3);
    EXPECT_NEAR(static_cast<double>(rs), static_cast<double>(ag),
                0.05 * static_cast<double>(ag));
}

TEST(Collective, LatencyScalesLinearlyWithMessageSize)
{
    const Tick small = measure(CollectiveKind::AllReduce, 8, 4e6, 64e3);
    const Tick large = measure(CollectiveKind::AllReduce, 8, 16e6, 64e3);
    EXPECT_NEAR(static_cast<double>(large),
                4.0 * static_cast<double>(small),
                0.25 * static_cast<double>(large));
}

TEST(Collective, SixteenStageAllReduceCostsSevenPercentMore)
{
    // The paper's Figure 9 annotation: for reasonably large messages,
    // MC-DLA's 16-node rings cost ~7% more than DC-DLA's 8-node rings
    // for all-reduce ((15/16)/(7/8) = 1.071).
    const Tick n8 = measure(CollectiveKind::AllReduce, 8, 8e6);
    const Tick n16 = measure(CollectiveKind::AllReduce, 16, 8e6);
    const double overhead = static_cast<double>(n16)
        / static_cast<double>(n8) - 1.0;
    EXPECT_GT(overhead, 0.04);
    EXPECT_LT(overhead, 0.12);
}

TEST(Collective, BroadcastIsNearlyFlatInRingSize)
{
    // Pipelined broadcast: the payload streams once; extra stages add
    // only per-hop chunk latencies.
    const Tick n2 = measure(CollectiveKind::Broadcast, 2, 8e6);
    const Tick n36 = measure(CollectiveKind::Broadcast, 36, 8e6);
    EXPECT_LT(static_cast<double>(n36), 1.3 * static_cast<double>(n2));
}

TEST(Collective, AllGatherDoublesFromTwoToManyStages)
{
    // Figure 9: all-gather latency normalized to a 2-node ring tends to
    // 2x for large rings ((n-1)/n -> 1 vs 1/2).
    const Tick n2 = measure(CollectiveKind::AllGather, 2, 8e6);
    const Tick n36 = measure(CollectiveKind::AllGather, 36, 8e6);
    const double ratio = static_cast<double>(n36)
        / static_cast<double>(n2);
    EXPECT_GT(ratio, 1.7);
    EXPECT_LT(ratio, 2.4);
}

TEST(Collective, SmallMessagesPayLatencyNotBandwidth)
{
    // With a tiny payload the per-hop latency dominates, so a longer
    // ring is proportionally slower — the left side of Figure 9.
    const Tick n4 = measure(CollectiveKind::AllReduce, 4, 16e3);
    const Tick n32 = measure(CollectiveKind::AllReduce, 32, 16e3);
    EXPECT_GT(static_cast<double>(n32),
              3.0 * static_cast<double>(n4));
}

// ----------------------------------------------- multi-ring behaviour

TEST(Collective, TwoRingsHalveLatency)
{
    EventQueue eq;
    auto fab1 = uniformRing(eq, 8, 25.0 * kGB, 0);
    CollectiveEngine e1(eq, "one", *fab1);
    Tick t1 = 0;
    e1.launch(CollectiveKind::AllReduce, 8e6, [&] { t1 = eq.now(); });
    eq.run();

    EventQueue eq2;
    auto fab2 = std::make_unique<Fabric>(eq2, "two");
    for (int r = 0; r < 2; ++r) {
        RingPath ring;
        for (int i = 0; i < 8; ++i) {
            ring.stages.push_back(RingStage{true, i});
            Channel &ch = fab2->makeChannel(
                "r" + std::to_string(r) + "h" + std::to_string(i),
                25.0 * kGB, 0);
            ring.hops.push_back(Route{{&ch}});
        }
        fab2->addRing(std::move(ring));
    }
    CollectiveEngine e2(eq2, "two", *fab2);
    Tick t2 = 0;
    e2.launch(CollectiveKind::AllReduce, 8e6, [&] { t2 = eq2.now(); });
    eq2.run();

    EXPECT_NEAR(static_cast<double>(t2),
                static_cast<double>(t1) / 2.0,
                static_cast<double>(t1) * 0.1);
}

TEST(Collective, ConcurrentOpsContendOnSharedRing)
{
    EventQueue eq;
    auto fab = uniformRing(eq, 8, 25.0 * kGB, 0);
    CollectiveEngine engine(eq, "nccl", *fab);
    Tick solo = 0;
    engine.launch(CollectiveKind::AllReduce, 8e6,
                  [&] { solo = eq.now(); });
    eq.run();

    EventQueue eq2;
    auto fab2 = uniformRing(eq2, 8, 25.0 * kGB, 0);
    CollectiveEngine engine2(eq2, "nccl", *fab2);
    Tick both = 0;
    int done = 0;
    auto on_done = [&] {
        if (++done == 2)
            both = eq2.now();
    };
    engine2.launch(CollectiveKind::AllReduce, 8e6, on_done);
    engine2.launch(CollectiveKind::AllReduce, 8e6, on_done);
    eq2.run();
    EXPECT_NEAR(static_cast<double>(both),
                2.0 * static_cast<double>(solo),
                static_cast<double>(solo) * 0.15);
}

// ------------------------------------------------ pinned exact ticks
//
// Exact completion ticks and channel totals of small collectives. Any
// change to how chunks travel (submit order, per-hop routing, join
// counting) must reproduce these to the tick and the byte.

/** What one pinned run left behind. */
struct Pinned
{
    Tick done = 0;
    std::uint64_t ops = 0;
    double launched = 0.0;
    /** Per-channel totals, in the order the test lists the channels. */
    std::vector<double> bytes;
    std::vector<double> transfers;
};

void
expectPinned(const Pinned &got, const Pinned &want)
{
    EXPECT_EQ(got.done, want.done);
    EXPECT_EQ(got.ops, want.ops);
    EXPECT_EQ(got.launched, want.launched);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.transfers, want.transfers);
}

/** Engine counters plus the totals of @p channels after a run. */
Pinned
pinnedState(Tick done, const CollectiveEngine &engine,
            const std::vector<Channel *> &channels)
{
    Pinned out{done, engine.opsCompleted(), engine.bytesLaunched(), {},
               {}};
    for (const Channel *ch : channels) {
        out.bytes.push_back(ch->bytesTransferred());
        out.transfers.push_back(static_cast<double>(ch->transfers()));
    }
    return out;
}

/** Every channel of @p ring's routes, in ring order. */
std::vector<Channel *>
ringChannels(const RingPath &ring)
{
    std::vector<Channel *> out;
    for (const Route &route : ring.hops)
        out.insert(out.end(), route.hops.begin(), route.hops.end());
    return out;
}

/** Every fabric channel that carried at least one transfer. */
std::vector<Channel *>
busyChannels(const Fabric &fab)
{
    std::vector<Channel *> out;
    for (Channel *ch : fab.channels())
        if (ch->transfers() > 0)
            out.push_back(ch);
    return out;
}

/** One collective on a 4-stage uniform ring, 64 kB chunks. */
Pinned
pinnedUniform(CollectiveKind kind, int root = 0, int stages = 4)
{
    EventQueue eq;
    auto fab = uniformRing(eq, stages, 25.0 * kGB, 500 * ticksPerNs);
    CollectiveConfig cfg;
    cfg.chunkBytes = 64e3;
    CollectiveEngine engine(eq, "nccl", *fab, cfg);
    Tick done = 0;
    engine.launch(kind, 1e6, [&] { done = eq.now(); }, root);
    eq.run();
    return pinnedState(done, engine, ringChannels(fab->rings()[0]));
}

TEST(CollectivePinned, UniformRingAllGather)
{
    expectPinned(pinnedUniform(CollectiveKind::AllGather),
                 Pinned{30500000, 1, 1e6, {750000, 750000, 750000, 750000},
                        {12, 12, 12, 12}});
}

TEST(CollectivePinned, UniformRingAllReduce)
{
    expectPinned(pinnedUniform(CollectiveKind::AllReduce),
                 Pinned{60500000, 1, 1e6,
                        {1500000, 1500000, 1500000, 1500000},
                        {24, 24, 24, 24}});
}

TEST(CollectivePinned, UniformRingReduceScatter)
{
    expectPinned(pinnedUniform(CollectiveKind::ReduceScatter),
                 Pinned{30500000, 1, 1e6, {750000, 750000, 750000, 750000},
                        {12, 12, 12, 12}});
}

TEST(CollectivePinned, UniformRingBroadcast)
{
    expectPinned(pinnedUniform(CollectiveKind::Broadcast),
                 Pinned{46620000, 1, 1e6, {1e6, 1e6, 1e6, 0},
                        {16, 16, 16, 0}});
}

TEST(CollectivePinned, BroadcastFromRootThree)
{
    // The hop into the root carries nothing; the pipeline starts at
    // stage 3 and wraps around.
    expectPinned(pinnedUniform(CollectiveKind::Broadcast, 3, 6),
                 Pinned{52740000, 1, 1e6, {1e6, 1e6, 0, 1e6, 1e6, 1e6},
                        {16, 16, 0, 16, 16, 16}});
}

TEST(CollectivePinned, MultiChannelRoutesOnFatTree)
{
    // Every fat-tree ring hop crosses a leaf switch (and sometimes a
    // spine), so chunks walk several channels within one stage.
    EventQueue eq;
    FabricConfig fcfg;
    fcfg.numDevices = 8;
    auto fab = buildTopologyFabric(eq, fcfg, TopologyKind::FatTree);
    const RingPath &ring = fab->rings()[0];
    ASSERT_GT(ring.physicalHopCount(), ring.stageCount());
    CollectiveConfig cfg;
    cfg.chunkBytes = 64e3;
    CollectiveEngine engine(eq, "nccl", *fab, cfg);
    Tick done = 0;
    engine.launch(CollectiveKind::AllReduce, 3e6,
                  [&] { done = eq.now(); });
    eq.run();
    expectPinned(pinnedState(done, engine, ringChannels(ring)),
                 Pinned{220280000, 1, 3e6,
                        std::vector<double>(20, 5250000),
                        std::vector<double>(20, 84)});
}

TEST(CollectivePinned, LaunchOnRestrictedRing)
{
    // Dropping devices folds their hops into multi-channel routes.
    EventQueue eq;
    auto fab = uniformRing(eq, 8, 25.0 * kGB, 500 * ticksPerNs);
    const RingPath sub =
        restrictRingToDevices(fab->rings()[0], {1, 2, 5, 6});
    ASSERT_EQ(sub.stageCount(), 4);
    CollectiveConfig cfg;
    cfg.chunkBytes = 64e3;
    CollectiveEngine engine(eq, "nccl", *fab, cfg);
    Tick done = 0;
    engine.launchOn({&sub}, CollectiveKind::AllReduce, 1e6,
                    [&] { done = eq.now(); });
    eq.run();
    expectPinned(pinnedState(done, engine, ringChannels(sub)),
                 Pinned{66620000, 1, 1e6, std::vector<double>(8, 1500000),
                        std::vector<double>(8, 24)});
}

/** A 16-device full switch. */
std::unique_ptr<Fabric>
switched(EventQueue &eq)
{
    FabricConfig fcfg;
    fcfg.numDevices = 16;
    fcfg.switchRadix = 64;
    return buildTopologyFabric(eq, fcfg, TopologyKind::FullSwitch);
}

/** Channel count and totals, not the per-channel list. */
Pinned
switchedState(Tick done, const CollectiveEngine &engine,
              const Fabric &fab)
{
    Pinned out = pinnedState(done, engine, busyChannels(fab));
    double bytes = 0.0;
    double transfers = 0.0;
    for (std::size_t i = 0; i < out.bytes.size(); ++i) {
        bytes += out.bytes[i];
        transfers += out.transfers[i];
    }
    out.bytes = {static_cast<double>(out.bytes.size()), bytes};
    out.transfers = {transfers};
    return out;
}

/** 64 kB chunks of @p algo. */
CollectiveConfig
switchedConfig(CollectiveAlgorithm algo)
{
    CollectiveConfig cfg;
    cfg.chunkBytes = 64e3;
    cfg.algorithm = algo;
    return cfg;
}

/** One @p kind of @p algo on a 16-device full switch. */
Pinned
pinnedSwitched(CollectiveAlgorithm algo, CollectiveKind kind)
{
    EventQueue eq;
    auto fab = switched(eq);
    CollectiveEngine engine(eq, "nccl", *fab, switchedConfig(algo));
    Tick done = 0;
    engine.launch(kind, 1e6, [&] { done = eq.now(); });
    eq.run();
    return switchedState(done, engine, *fab);
}

TEST(Collective, AbandonedEngineReleasesItsCompletion)
{
    // An engine destroyed mid-collective takes its completion, and
    // what it captures, with it.
    for (CollectiveAlgorithm algo :
         {CollectiveAlgorithm::Ring, CollectiveAlgorithm::Tree}) {
        EventQueue eq;
        auto fab = switched(eq);
        auto token = std::make_shared<int>(0);
        {
            CollectiveConfig cfg;
            cfg.algorithm = algo;
            CollectiveEngine engine(eq, "nccl", *fab, cfg);
            engine.launch(CollectiveKind::AllReduce, 8e6,
                          [token] { ++*token; });
            while (eq.now() < secondsToTicks(50e-6))
                ASSERT_TRUE(eq.step());
            ASSERT_FALSE(eq.empty());
        }
        EXPECT_EQ(*token, 0);
        EXPECT_EQ(token.use_count(), 1)
            << kCollectiveAlgorithms.token(algo);
    }
}

TEST(CollectivePinned, TreeAllReduce)
{
    expectPinned(pinnedSwitched(CollectiveAlgorithm::Tree,
                                CollectiveKind::AllReduce),
                 Pinned{350880000, 1, 1e6, {32, 60000000}, {960}});
}

TEST(CollectivePinned, HierarchicalAllReduce)
{
    // Board trees around a leader ring that the engine embeds itself.
    expectPinned(pinnedSwitched(CollectiveAlgorithm::Hierarchical,
                                CollectiveKind::AllReduce),
                 Pinned{307020000, 1, 1e6, {32, 60000000}, {960}});
}

TEST(CollectivePinned, HierarchicalReduceScatter)
{
    // Board reduce trees, then the leader ring; no broadcast back.
    expectPinned(pinnedSwitched(CollectiveAlgorithm::Hierarchical,
                                CollectiveKind::ReduceScatter),
                 Pinned{155440000, 1, 1e6, {24, 30000000}, {480}});
}

TEST(CollectivePinned, HierarchicalAllGather)
{
    // The leader ring first, then board broadcast trees.
    expectPinned(pinnedSwitched(CollectiveAlgorithm::Hierarchical,
                                CollectiveKind::AllGather),
                 Pinned{155440000, 1, 1e6, {24, 30000000}, {480}});
}

TEST(CollectivePinned, TreeBroadcast)
{
    expectPinned(pinnedSwitched(CollectiveAlgorithm::Tree,
                                CollectiveKind::Broadcast),
                 Pinned{175440000, 1, 1e6, {23, 30000000}, {480}});
}

TEST(CollectivePinned, HierarchicalCompletionLaunchesTheNextCollective)
{
    // The reduce-scatter's completion fires inside its leader ring's
    // last delivery and starts the all-gather's leader ring there.
    EventQueue eq;
    auto fab = switched(eq);
    CollectiveEngine engine(
        eq, "nccl", *fab,
        switchedConfig(CollectiveAlgorithm::Hierarchical));
    Tick first = 0;
    Tick done = 0;
    engine.launch(CollectiveKind::ReduceScatter, 1e6, [&] {
        first = eq.now();
        engine.launch(CollectiveKind::AllGather, 1e6,
                      [&] { done = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(first, 155440000u);
    expectPinned(switchedState(done, engine, *fab),
                 Pinned{310880000, 2, 2e6, {32, 60000000}, {960}});
}

TEST(CollectivePinned, CompletionLaunchesTheNextCollective)
{
    // The first operation's handler starts the second from inside the
    // last chunk's delivery.
    EventQueue eq;
    auto fab = uniformRing(eq, 4, 25.0 * kGB, 500 * ticksPerNs);
    CollectiveConfig cfg;
    cfg.chunkBytes = 64e3;
    CollectiveEngine engine(eq, "nccl", *fab, cfg);
    Tick first = 0;
    Tick done = 0;
    engine.launch(CollectiveKind::ReduceScatter, 1e6, [&] {
        first = eq.now();
        engine.launch(CollectiveKind::AllGather, 1e6,
                      [&] { done = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(first, 30500000u);
    expectPinned(pinnedState(done, engine, ringChannels(fab->rings()[0])),
                 Pinned{61000000, 2, 2e6,
                        {1500000, 1500000, 1500000, 1500000},
                        {24, 24, 24, 24}});
}

// ----------------------------------------------- analytic cross-check

class AnalyticAgreement
    : public ::testing::TestWithParam<std::tuple<CollectiveKind, int>>
{};

TEST_P(AnalyticAgreement, DesMatchesClosedForm)
{
    const auto [kind, stages] = GetParam();
    const double bytes = 8e6;
    const double chunk = 64e3;
    const double bw = 25.0 * kGB;
    const Tick latency = 500 * ticksPerNs;
    const Tick des = measure(kind, stages, bytes, chunk, bw, latency);
    const Tick analytic =
        analyticRingLatency(kind, stages, bytes, bw, latency, chunk);
    EXPECT_NEAR(static_cast<double>(des),
                static_cast<double>(analytic),
                0.3 * static_cast<double>(analytic))
        << collectiveKindName(kind) << " stages=" << stages;
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, AnalyticAgreement,
    ::testing::Combine(
        ::testing::Values(CollectiveKind::AllGather,
                          CollectiveKind::AllReduce,
                          CollectiveKind::ReduceScatter,
                          CollectiveKind::Broadcast),
        ::testing::Values(2, 4, 8, 16, 24, 36)),
    [](const auto &test_info) {
        const char *kind = "x";
        switch (std::get<0>(test_info.param)) {
          case CollectiveKind::AllGather: kind = "ag"; break;
          case CollectiveKind::AllReduce: kind = "ar"; break;
          case CollectiveKind::ReduceScatter: kind = "rs"; break;
          case CollectiveKind::Broadcast: kind = "bc"; break;
        }
        return std::string(kind) + "_n"
            + std::to_string(std::get<1>(test_info.param));
    });

TEST(AnalyticModel, DegenerateCases)
{
    EXPECT_EQ(analyticRingLatency(CollectiveKind::AllReduce, 1, 1e6,
                                  25e9, 0, 4096),
              0u);
    EXPECT_EQ(analyticRingLatency(CollectiveKind::AllReduce, 8, 0.0,
                                  25e9, 0, 4096),
              0u);
}

} // anonymous namespace
} // namespace mcdla
