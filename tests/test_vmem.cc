/**
 * @file
 * Unit tests for the virtual-memory runtime: the vDNN offload plan, the
 * DMA engine, the Table I API, and the Fig 10 LOCAL-vs-BW_AWARE latency
 * relation.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dnn/builders.hh"
#include "interconnect/fabrics.hh"
#include "sim/logging.hh"
#include "vmem/dma_engine.hh"
#include "vmem/offload_plan.hh"
#include "vmem/runtime.hh"

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

// --------------------------------------------------------- offload plan

TEST(OffloadPlan, HeavyLayersOffloadCheapRecompute)
{
    const Network net = builders::buildAlexNet();
    const OffloadPlan plan(net, OffloadPolicy{});
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        const Layer &layer = net.layer(id);
        const TensorAction action = plan.entry(id).action;
        switch (layer.costClass()) {
          case CostClass::Heavy:
            EXPECT_EQ(action, TensorAction::Offload) << layer.name();
            break;
          case CostClass::Cheap:
            EXPECT_TRUE(action == TensorAction::Recompute
                        || action == TensorAction::None)
                << layer.name();
            break;
          case CostClass::Structural:
            // The CNN input tensor is offloaded (it is conv1's X).
            if (layer.kind() == LayerKind::Input)
                EXPECT_EQ(action, TensorAction::Offload);
            else
                EXPECT_EQ(action, TensorAction::None) << layer.name();
            break;
        }
    }
    EXPECT_GT(plan.offloadBytesPerSample(), 0u);
    EXPECT_EQ(plan.residentBytesPerSample(), 0u);
}

TEST(OffloadPlan, OracleKeepsEverythingLocal)
{
    const Network net = builders::buildAlexNet();
    OffloadPolicy policy;
    policy.virtualizeMemory = false;
    const OffloadPlan plan(net, policy);
    EXPECT_EQ(plan.offloadCount(), 0u);
    EXPECT_EQ(plan.offloadBytesPerSample(), 0u);
    EXPECT_GT(plan.residentBytesPerSample(), 0u);
}

TEST(OffloadPlan, RecomputeOffMigratesCheapLayersToo)
{
    const Network net = builders::buildAlexNet();
    OffloadPolicy with, without;
    without.recomputeCheapLayers = false;
    const OffloadPlan plan_with(net, with);
    const OffloadPlan plan_without(net, without);
    EXPECT_GT(plan_without.offloadBytesPerSample(),
              plan_with.offloadBytesPerSample());
    EXPECT_TRUE(plan_with.recomputedLayers().size() > 0);
    EXPECT_TRUE(plan_without.recomputedLayers().empty());
}

TEST(OffloadPlan, RecurrentCellsCarryTheirSlices)
{
    const Network net = builders::buildRnnLstm1(4, 64);
    const OffloadPlan plan(net, OffloadPolicy{});
    // The monolithic input sequence is not offloaded...
    EXPECT_EQ(plan.entry(0).action, TensorAction::None);
    // ...but every cell is, including its gate stash.
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        if (!net.layer(id).isRecurrent())
            continue;
        EXPECT_EQ(plan.entry(id).action, TensorAction::Offload);
        EXPECT_GT(plan.entry(id).auxBytesPerSample, 0u);
    }
}

TEST(OffloadPlan, BytesMatchManualSum)
{
    const Network net = builders::buildVggE();
    const OffloadPlan plan(net, OffloadPolicy{});
    std::uint64_t expected = 0;
    for (const TensorPlan &entry : plan.entries())
        if (entry.action == TensorAction::Offload)
            expected += entry.totalBytesPerSample();
    EXPECT_EQ(plan.offloadBytesPerSample(), expected);
}

TEST(OffloadPlan, ActionNames)
{
    EXPECT_STREQ(tensorActionName(TensorAction::Offload), "offload");
    EXPECT_STREQ(tensorActionName(TensorAction::Recompute), "recompute");
    EXPECT_STREQ(tensorActionName(TensorAction::KeepLocal),
                 "keep-local");
    EXPECT_STREQ(tensorActionName(TensorAction::None), "none");
}

// ----------------------------------------------------------- DMA engine

class DmaTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fabric = buildMcdlaRingFabric(eq, FabricConfig{});
    }

    EventQueue eq;
    std::unique_ptr<Fabric> fabric;
};

TEST_F(DmaTest, OffloadCompletesAtExpectedBandwidth)
{
    DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
    ASSERT_TRUE(dma.hasBackingStore());
    EXPECT_EQ(dma.pathCount(), 2u);

    Tick done = 0;
    // Even spread across both neighbors: all 6 links = 150 GB/s.
    dma.transfer(150e6, DmaDirection::LocalToRemote,
                 [&] { done = eq.now(); });
    eq.run();
    const double seconds = ticksToSeconds(done);
    EXPECT_NEAR(seconds, 1e-3, 0.15e-3);
    EXPECT_DOUBLE_EQ(dma.bytesOffloaded(), 150e6);
}

TEST_F(DmaTest, SingleTargetIsHalfBandwidth)
{
    DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
    Tick done = 0;
    dma.transfer(150e6, DmaDirection::LocalToRemote, {1.0, 0.0},
                 [&] { done = eq.now(); });
    eq.run();
    // 3 links = 75 GB/s -> ~2 ms: Fig 10's LOCAL/BW_AWARE 2x relation.
    EXPECT_NEAR(ticksToSeconds(done), 2e-3, 0.3e-3);
}

TEST_F(DmaTest, PrefetchUsesReadRoutes)
{
    DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
    Tick done = 0;
    dma.transfer(75e6, DmaDirection::RemoteToLocal,
                 [&] { done = eq.now(); });
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_DOUBLE_EQ(dma.bytesPrefetched(), 75e6);
    EXPECT_DOUBLE_EQ(dma.bytesOffloaded(), 0.0);
}

TEST_F(DmaTest, ZeroByteTransferCompletes)
{
    DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
    bool done = false;
    dma.transfer(0.0, DmaDirection::LocalToRemote, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

TEST_F(DmaTest, ZeroByteTransferWithoutCompletion)
{
    // Nothing to run, but the completion event is still scheduled.
    DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
    dma.transfer(0.0, DmaDirection::LocalToRemote, nullptr);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST_F(DmaTest, MoveOnlyCompletion)
{
    DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
    auto owned = std::make_unique<int>(7);
    int seen = 0;
    dma.transfer(1e6, DmaDirection::LocalToRemote,
                 [&seen, owned = std::move(owned)] { seen = *owned; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST_F(DmaTest, AbandonedTransferReleasesItsCompletion)
{
    // An engine destroyed mid-transfer takes its flows' completion
    // handlers, and what they capture, with it.
    auto token = std::make_shared<int>(0);
    {
        DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
        dma.transfer(150e6, DmaDirection::LocalToRemote,
                     [token] { ++*token; });
        eq.runUntil(secondsToTicks(100e-6));
        ASSERT_FALSE(eq.empty());
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST_F(DmaTest, NoBackingStoreIsFatal)
{
    LogConfig::throwOnError = true;
    DmaEngine dma(eq, "dma0", {});
    EXPECT_FALSE(dma.hasBackingStore());
    EXPECT_THROW(dma.transfer(1e3, DmaDirection::LocalToRemote, nullptr),
                 FatalError);
    LogConfig::throwOnError = false;
}

// ------------------------------------------------------- Table I runtime

class RuntimeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fabric = buildMcdlaRingFabric(eq, FabricConfig{});
        space = std::make_unique<DeviceAddressSpace>(
            "d0", 16 * kGiB,
            std::vector<RemoteRegion>{RemoteRegion{0, 640 * kGiB},
                                      RemoteRegion{7, 640 * kGiB}});
        dma = std::make_unique<DmaEngine>(eq, "dma0",
                                          fabric->vmemPaths(0));
    }

    EventQueue eq;
    std::unique_ptr<Fabric> fabric;
    std::unique_ptr<DeviceAddressSpace> space;
    std::unique_ptr<DmaEngine> dma;
};

TEST_F(RuntimeTest, MallocMemcpyFreeRoundTrip)
{
    VmemRuntime rt(*space, *dma, PagePolicy::BwAware);
    const RemotePtr ptr = rt.mallocRemote(64 * kMiB);
    ASSERT_NE(ptr, invalidRemotePtr);
    EXPECT_EQ(rt.liveAllocations(), 1u);

    Tick offloaded = 0, prefetched = 0;
    rt.memcpyAsync(ptr, 64.0 * kMiB, DmaDirection::LocalToRemote,
                   [&] { offloaded = eq.now(); });
    eq.run();
    rt.memcpyAsync(ptr, 64.0 * kMiB, DmaDirection::RemoteToLocal,
                   [&] { prefetched = eq.now(); });
    eq.run();
    EXPECT_GT(offloaded, 0u);
    EXPECT_GT(prefetched, offloaded);

    rt.freeRemote(ptr);
    EXPECT_EQ(rt.liveAllocations(), 0u);
    EXPECT_EQ(space->remoteUsed(), 0u);
}

TEST_F(RuntimeTest, BwAwarePlacementEngagesBothNodes)
{
    VmemRuntime rt(*space, *dma, PagePolicy::BwAware);
    const RemotePtr ptr = rt.mallocRemote(64 * kMiB);
    const Placement &p = rt.placement(ptr);
    EXPECT_NEAR(p.fractions[0], 0.5, 0.01);
    EXPECT_NEAR(p.fractions[1], 0.5, 0.01);
}

TEST_F(RuntimeTest, LocalVsBwAwareLatencyIsTwoToOne)
{
    // Fig 10: Latency_LOCAL = D/(N*B/2), Latency_BW_AWARE = D/(N*B).
    VmemRuntime local(*space, *dma, PagePolicy::Local);
    VmemRuntime aware(*space, *dma, PagePolicy::BwAware);
    const double bytes = 96e6;

    const RemotePtr pl = local.mallocRemote(
        static_cast<std::uint64_t>(bytes));
    Tick t_local = 0;
    local.memcpyAsync(pl, bytes, DmaDirection::LocalToRemote,
                      [&] { t_local = eq.now(); });
    eq.run();

    const Tick base = eq.now();
    const RemotePtr pa = aware.mallocRemote(
        static_cast<std::uint64_t>(bytes));
    Tick t_aware = 0;
    aware.memcpyAsync(pa, bytes, DmaDirection::LocalToRemote,
                      [&] { t_aware = eq.now() - base; });
    eq.run();

    EXPECT_NEAR(static_cast<double>(t_local),
                2.0 * static_cast<double>(t_aware),
                0.25 * static_cast<double>(t_local));
}

TEST_F(RuntimeTest, ErrorsOnBadHandles)
{
    LogConfig::throwOnError = true;
    VmemRuntime rt(*space, *dma, PagePolicy::BwAware);
    EXPECT_THROW(rt.freeRemote(42), FatalError);
    EXPECT_THROW(rt.placement(42), FatalError);
    const RemotePtr ptr = rt.mallocRemote(2 * kMiB);
    EXPECT_THROW(rt.memcpyAsync(ptr, 64.0 * kMiB,
                                DmaDirection::LocalToRemote, nullptr),
                 FatalError);
    LogConfig::throwOnError = false;
}

} // anonymous namespace
} // namespace mcdla
