/**
 * @file
 * Unit tests for system composition: per-design fabric/address-space
 * wiring, Table II defaults, capacity exposure, and page policies.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "system/system.hh"

namespace mcdla
{
namespace
{

System
makeSystem(EventQueue &eq, SystemDesign design)
{
    SystemConfig cfg;
    cfg.design = design;
    return System(eq, cfg);
}

TEST(SystemDesigns, Names)
{
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::DcDla), "DC-DLA");
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::HcDla), "HC-DLA");
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::McDlaS), "MC-DLA(S)");
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::McDlaL), "MC-DLA(L)");
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::McDlaB), "MC-DLA(B)");
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::DcDlaOracle),
                 "DC-DLA(O)");
}

TEST(SystemDesigns, Predicates)
{
    EXPECT_TRUE(designVirtualizesMemory(SystemDesign::DcDla));
    EXPECT_FALSE(designVirtualizesMemory(SystemDesign::DcDlaOracle));
    EXPECT_TRUE(designUsesHostMemory(SystemDesign::HcDla));
    EXPECT_FALSE(designUsesHostMemory(SystemDesign::McDlaB));
    EXPECT_TRUE(designHasMemoryNodes(SystemDesign::McDlaS));
    EXPECT_FALSE(designHasMemoryNodes(SystemDesign::DcDla));
}

TEST(SystemConfig, PagePolicyByDesign)
{
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    EXPECT_EQ(cfg.pagePolicy(), PagePolicy::BwAware);
    cfg.design = SystemDesign::McDlaL;
    EXPECT_EQ(cfg.pagePolicy(), PagePolicy::Local);
    cfg.design = SystemDesign::DcDla;
    EXPECT_EQ(cfg.pagePolicy(), PagePolicy::Local);
}

TEST(SystemConfig, OffloadPolicyByDesign)
{
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDlaOracle;
    EXPECT_FALSE(cfg.offloadPolicy().virtualizeMemory);
    cfg.design = SystemDesign::DcDla;
    EXPECT_TRUE(cfg.offloadPolicy().virtualizeMemory);
}

TEST(System, ComposesEightDevices)
{
    EventQueue eq;
    System sys = makeSystem(eq, SystemDesign::McDlaB);
    EXPECT_EQ(sys.numDevices(), 8);
    for (int d = 0; d < 8; ++d) {
        EXPECT_EQ(sys.device(d).config().numPes, 1024);
        EXPECT_TRUE(sys.dma(d).hasBackingStore());
    }
    EXPECT_EQ(sys.collectives().ringCount(), 6u);
}

TEST(System, McdlaRingAddressSpaceHalvesNeighborBoards)
{
    EventQueue eq;
    System sys = makeSystem(eq, SystemDesign::McDlaB);
    DeviceAddressSpace &space = sys.addressSpace(0);
    ASSERT_EQ(space.regionCount(), 2u);
    // Each neighbor memory-node board is split between two devices.
    MemoryNodeConfig node;
    EXPECT_EQ(space.region(0).capacity, node.capacity() / 2);
    EXPECT_EQ(space.region(1).capacity, node.capacity() / 2);
}

TEST(System, McdlaStarOwnsWholeBoard)
{
    EventQueue eq;
    System sys = makeSystem(eq, SystemDesign::McDlaS);
    DeviceAddressSpace &space = sys.addressSpace(0);
    ASSERT_EQ(space.regionCount(), 1u);
    MemoryNodeConfig node;
    EXPECT_EQ(space.region(0).capacity, node.capacity());
}

TEST(System, HostDesignsExposeHostCapacity)
{
    EventQueue eq;
    System sys = makeSystem(eq, SystemDesign::DcDla);
    DeviceAddressSpace &space = sys.addressSpace(0);
    ASSERT_EQ(space.regionCount(), 1u);
    EXPECT_EQ(space.region(0).targetIndex, -1);
    EXPECT_EQ(space.region(0).capacity, 768u * kGiB);
}

TEST(System, OracleHasEffectivelyInfiniteLocalMemory)
{
    EventQueue eq;
    System sys = makeSystem(eq, SystemDesign::DcDlaOracle);
    EXPECT_FALSE(sys.hasBackingStore());
    EXPECT_FALSE(sys.dma(0).hasBackingStore());
    EXPECT_GT(sys.addressSpace(0).localCapacity(), 1000 * kTiB);
}

TEST(System, TensOfTerabytesExposed)
{
    // Section V-C: with 128 GB LRDIMM memory-nodes the pool expands by
    // ~10.4 TB system-wide.
    EventQueue eq;
    System sys = makeSystem(eq, SystemDesign::McDlaB);
    const double total =
        static_cast<double>(sys.totalExposedMemory());
    // 8 x 16 GiB local + 8 x 1.25 TiB remote.
    EXPECT_GT(total, 10e12);
    EXPECT_LT(total, 12e12);
}

TEST(System, FabricLinkParametersFollowDeviceConfig)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    cfg.device.linkBandwidth = 50.0 * kGB; // DGX-2-class links
    System sys(eq, cfg);
    EXPECT_DOUBLE_EQ(sys.config().fabric.linkBandwidth, 50.0 * kGB);
}

} // anonymous namespace
} // namespace mcdla
