/**
 * @file
 * Unit tests for the Topology graph layer: generators, Router
 * shortest-path tables, deviceRoute/sub-ring regression cases,
 * FabricConfig validation, collective algorithm selection (ring vs
 * tree vs hierarchical crossovers), the per-channel utilization
 * surface, and the fabric census that pins every builder's wiring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>

#include "cluster/cluster.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "interconnect/fabrics.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

class TopologyTest : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

FabricConfig
testConfig(int devices = 8)
{
    FabricConfig cfg;
    cfg.numDevices = devices;
    return cfg;
}

/**
 * The legacy ring-walk routing (the pre-Router implementation of
 * Fabric::deviceRoute), kept verbatim as the regression reference:
 * equal-cost routes must keep this choice for bit-reproducibility.
 */
Route
legacyRingWalk(const Fabric &fab, int src, int dst)
{
    Route best;
    std::size_t best_len = 0;
    if (src == dst)
        return best;
    for (const RingPath &ring : fab.rings()) {
        const int start = ring.stageOfDevice(src);
        if (start < 0)
            continue;
        Route walk;
        bool found = false;
        int pos = start;
        for (int step = 0; step < ring.stageCount(); ++step) {
            const Route &hop = ring.hops[static_cast<std::size_t>(pos)];
            walk.hops.insert(walk.hops.end(), hop.hops.begin(),
                             hop.hops.end());
            pos = (pos + 1) % ring.stageCount();
            const RingStage &stage =
                ring.stages[static_cast<std::size_t>(pos)];
            if (stage.isDevice && stage.index == dst) {
                found = true;
                break;
            }
        }
        if (found && (!best.valid() || walk.hops.size() < best_len)) {
            best_len = walk.hops.size();
            best = std::move(walk);
        }
    }
    return best;
}

// ------------------------------------------------------ topology graph

TEST_F(TopologyTest, LegacyBuildersPopulateTheGraph)
{
    EventQueue eq;
    auto mc = buildMcdlaRingFabric(eq, testConfig());
    const Topology &topo = mc->topology();
    EXPECT_EQ(topo.count(NodeKind::Device), 8);
    EXPECT_EQ(topo.count(NodeKind::MemoryNode), 8);
    EXPECT_EQ(topo.count(NodeKind::Switch), 0);
    // 8 DIMM self-links + 4 channels x 3 rings x 8 positions.
    EXPECT_EQ(topo.links().size(), 8u + 96u);
    // Every channel the fabric owns is on the graph.
    EXPECT_EQ(topo.links().size(), mc->channels().size());

    auto dc = buildDcdlaFabric(eq, testConfig());
    EXPECT_EQ(dc->topology().count(NodeKind::Device), 8);
    EXPECT_EQ(dc->topology().count(NodeKind::Host), 2);
    EXPECT_EQ(dc->topology().links().size(), dc->channels().size());
}

TEST_F(TopologyTest, VmemOnlyResourcesAreNotRoutable)
{
    EventQueue eq;
    auto dc = buildDcdlaFabric(eq, testConfig());
    // PCIe and socket channels must never carry device-to-device
    // routes: the all-NVLINK path is 4 hops even though the host
    // "shortcut" would be 2 channels.
    EXPECT_EQ(dc->deviceHopCount(0, 4), 4);
    for (const TopoLink &link : dc->topology().links()) {
        const NodeKind src = dc->topology().nodeInfo(link.src).kind;
        const NodeKind dst = dc->topology().nodeInfo(link.dst).kind;
        if (src == NodeKind::Host || dst == NodeKind::Host) {
            EXPECT_FALSE(link.routable) << link.channel->name();
        }
    }
}

TEST_F(TopologyTest, NodeNamesAndTags)
{
    EventQueue eq;
    auto fab = buildMcdlaSwitchFabric(eq, testConfig());
    const Topology &topo = fab->topology();
    EXPECT_EQ(topo.nodeName(topo.findNode(NodeKind::Device, 3)), "D3");
    EXPECT_EQ(topo.nodeName(topo.findNode(NodeKind::Switch, 0)), "S0");
    EXPECT_STREQ(nodeKindTag(NodeKind::MemoryNode), "M");
}

// ------------------------------------------------------------- router

TEST_F(TopologyTest, DeviceRouteKeepsLegacyChoiceOnRingFabrics)
{
    // On the paper's ring-structured fabrics the BFS distance equals
    // the ring walk's, so deviceRoute must return the walk's exact
    // channel sequence (equal-cost tie keeps the legacy choice) —
    // this is what keeps pipeline/cluster outputs bit-identical.
    EventQueue eq;
    for (const auto &fab :
         {buildDcdlaFabric(eq, testConfig()),
          buildMcdlaRingFabric(eq, testConfig()),
          buildHcdlaFabric(eq, testConfig())}) {
        for (int s = 0; s < 8; ++s) {
            for (int d = 0; d < 8; ++d) {
                const Route walk = legacyRingWalk(*fab, s, d);
                const Route route = fab->deviceRoute(s, d);
                EXPECT_EQ(walk.hops, route.hops)
                    << fab->name() << " " << s << "->" << d;
            }
        }
    }
}

TEST_F(TopologyTest, RouterNeverLosesToTheRingWalk)
{
    EventQueue eq;
    for (const auto &fab :
         {buildMcdlaStarFabric(eq, testConfig()),
          buildMcdlaStarAFabric(eq, testConfig()),
          buildMcdlaSwitchFabric(eq, testConfig())}) {
        for (int s = 0; s < 8; ++s) {
            for (int d = 0; d < 8; ++d) {
                if (s == d)
                    continue;
                const Route walk = legacyRingWalk(*fab, s, d);
                const int hops = fab->deviceHopCount(s, d);
                ASSERT_TRUE(walk.valid());
                EXPECT_GT(hops, 0);
                EXPECT_LE(static_cast<std::size_t>(hops),
                          walk.hops.size())
                    << fab->name() << " " << s << "->" << d;
            }
        }
    }
}

TEST_F(TopologyTest, SwitchFabricRoutesCrossOnePlane)
{
    // The crossbar is the whole point of the switched design: any
    // device pair is up + down, not a walk around the logical ring.
    EventQueue eq;
    auto fab = buildMcdlaSwitchFabric(eq, testConfig());
    for (int d = 1; d < 8; ++d) {
        EXPECT_EQ(fab->deviceHopCount(0, d), 2);
        const Route route = fab->deviceRoute(0, d);
        ASSERT_EQ(route.hops.size(), 2u);
        // Both channels on the same plane (plane names prefix match).
        const std::string up = route.hops[0]->name();
        const std::string down = route.hops[1]->name();
        EXPECT_EQ(up.substr(0, up.find(".d")),
                  down.substr(0, down.find(".d")));
    }
}

TEST_F(TopologyTest, RouterEdgeCases)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    EXPECT_FALSE(fab->deviceRoute(3, 3).valid());
    EXPECT_FALSE(fab->deviceRoute(0, 99).valid());
    EXPECT_FALSE(fab->deviceRoute(-1, 0).valid());
    EXPECT_EQ(fab->deviceHopCount(5, 5), 0);
    EXPECT_EQ(fab->deviceHopCount(0, 99), -1);
    EXPECT_TRUE(fab->router().fullyConnected());
}

TEST_F(TopologyTest, HandBuiltFabricFallsBackToRingWalk)
{
    // Fabrics assembled with raw makeChannel/addRing (no graph) must
    // keep routing through the legacy walk — and asking for routing
    // tables is a configuration error, not a crash.
    EventQueue eq;
    Fabric fab(eq, "manual");
    RingPath ring;
    std::vector<Channel *> hops;
    for (int i = 0; i < 4; ++i)
        hops.push_back(&fab.makeChannel("h" + std::to_string(i), 1e9,
                                        0));
    for (int i = 0; i < 4; ++i) {
        ring.stages.push_back(RingStage{true, i});
        ring.hops.push_back(Route{{hops[static_cast<std::size_t>(i)]}});
    }
    fab.addRing(std::move(ring));
    const Route route = fab.deviceRoute(1, 3);
    ASSERT_EQ(route.hops.size(), 2u);
    EXPECT_EQ(route.hops[0], hops[1]);
    EXPECT_EQ(route.hops[1], hops[2]);
    EXPECT_EQ(fab.deviceHopCount(3, 1), 2);
    EXPECT_THROW(fab.router(), FatalError);
}

// ------------------------- deviceRoute / sub-ring regression cases

TEST_F(TopologyTest, SubRingTwoDeviceSubsetKeepsFullLoop)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    const RingPath &full = fab->rings()[0];

    // Adjacent pair: the restricted ring still walks all 16 channels.
    const RingPath adj = restrictRingToDevices(full, {0, 1});
    ASSERT_EQ(adj.deviceMembers(), (std::vector<int>{0, 1}));
    EXPECT_EQ(adj.physicalHopCount(), full.physicalHopCount());

    // Non-adjacent members: same full physical loop, device stages
    // collapse into store-and-forward hops.
    const RingPath far = restrictRingToDevices(full, {0, 5});
    ASSERT_EQ(far.deviceMembers(), (std::vector<int>{0, 5}));
    EXPECT_EQ(far.physicalHopCount(), full.physicalHopCount());
    // Memory-nodes stay full participants (8 of them + 2 devices).
    EXPECT_EQ(far.stageCount(), 10);
}

TEST_F(TopologyTest, SubRingDegenerateCases)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    const RingPath &full = fab->rings()[0];
    // Single member and absent members yield an empty ring.
    EXPECT_EQ(restrictRingToDevices(full, {3}).stageCount(), 0);
    EXPECT_EQ(restrictRingToDevices(full, {}).stageCount(), 0);
    EXPECT_EQ(restrictRingToDevices(full, {91, 92}).stageCount(), 0);
    // One present + one absent member: still fewer than two members.
    EXPECT_EQ(restrictRingToDevices(full, {0, 91}).stageCount(), 0);
}

TEST_F(TopologyTest, P2pRoutesBetweenSubsetMembersUseWholeFabric)
{
    // Pipeline-style point-to-point routing is not restricted by a
    // job's device subset: the route between devices 2 and 5 is the
    // same whether or not other devices are busy.
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());
    const Route r25 = fab->deviceRoute(2, 5);
    ASSERT_TRUE(r25.valid());
    EXPECT_EQ(r25.hops.size(), 6u); // 3 D->M->D segments
    const Route r52 = fab->deviceRoute(5, 2);
    ASSERT_TRUE(r52.valid());
    EXPECT_EQ(r52.hops.size(), 6u);
    // Opposite directions use disjoint channels.
    for (Channel *ch : r25.hops)
        EXPECT_EQ(std::find(r52.hops.begin(), r52.hops.end(), ch),
                  r52.hops.end());
}

// -------------------------------------------------- generic generators

TEST_F(TopologyTest, Mesh2dShapeAndRouting)
{
    EventQueue eq;
    auto fab = buildMesh2dFabric(eq, testConfig(8), /*wrap=*/false);
    const Topology &topo = fab->topology();
    EXPECT_EQ(topo.count(NodeKind::Device), 8);
    EXPECT_EQ(topo.count(NodeKind::MemoryNode), 8);
    // 2x4 grid: 6 horizontal + 4 vertical edges, 2 channels each,
    // + 8 DIMM buses + 8 devices x 2 lanes x 2 directions.
    EXPECT_EQ(topo.links().size(), 20u + 8u + 32u);
    // Corner-to-corner: (rows-1) + (cols-1) = 4 grid hops.
    EXPECT_EQ(fab->deviceHopCount(0, 7), 4);
    // No wraparound: 0 -> 3 walks the row.
    EXPECT_EQ(fab->deviceHopCount(0, 3), 3);
    EXPECT_TRUE(fab->router().fullyConnected());
    // Two serpentine rings over all devices.
    ASSERT_EQ(fab->rings().size(), 2u);
    for (const RingPath &ring : fab->rings())
        EXPECT_EQ(ring.deviceMembers().size(), 8u);
    // Dedicated memory-node per device.
    ASSERT_EQ(fab->vmemPaths(2).size(), 1u);
    EXPECT_EQ(fab->vmemPaths(2)[0].targetIndex, 2);
    EXPECT_EQ(fab->vmemPaths(2)[0].writeRoutes.size(), 2u);
}

TEST_F(TopologyTest, Torus2dWrapsTheLongDimension)
{
    EventQueue eq;
    auto mesh = buildMesh2dFabric(eq, testConfig(8), false);
    auto torus = buildMesh2dFabric(eq, testConfig(8), true);
    // 2x4: only the 4-wide dimension wraps (2 rows already adjacent).
    EXPECT_EQ(torus->topology().links().size(),
              mesh->topology().links().size() + 4u);
    // The wraparound shortens the row walk.
    EXPECT_EQ(torus->deviceHopCount(0, 3), 1);
    EXPECT_EQ(torus->deviceHopCount(0, 2), 2);
}

TEST_F(TopologyTest, FatTreeSeatsNodesAndRoutes)
{
    EventQueue eq;
    // 16 nodes fit one 36-port leaf: all pairs 2 hops, no spines.
    FabricConfig one_leaf = testConfig(8);
    one_leaf.switchRadix = 36;
    auto small = buildFatTreeFabric(eq, one_leaf);
    EXPECT_EQ(small->topology().count(NodeKind::Switch), 1);
    EXPECT_EQ(small->deviceHopCount(0, 7), 2);

    // 16 devices on radix 18: 4 leaves + 9 spines; same-leaf pairs
    // stay at 2 hops, cross-leaf pairs cross a spine (4 hops).
    FabricConfig big = testConfig(16);
    auto fab = buildFatTreeFabric(eq, big);
    EXPECT_EQ(fab->topology().count(NodeKind::Switch), 4 + 9);
    EXPECT_EQ(fab->deviceHopCount(0, 1), 2);  // slots 0,2 on leaf 0
    EXPECT_EQ(fab->deviceHopCount(0, 15), 4); // leaf 0 -> leaf 3
    EXPECT_TRUE(fab->router().fullyConnected());
    // vmem reaches the device's own memory-node on the shared leaf.
    ASSERT_EQ(fab->vmemPaths(0).size(), 1u);
    EXPECT_EQ(fab->vmemPaths(0)[0].writeRoutes[0].hops.size(), 3u);

    // A radix too small for the node count is a configuration error.
    FabricConfig tiny = testConfig(16);
    tiny.switchRadix = 4;
    EXPECT_THROW(buildFatTreeFabric(eq, tiny), FatalError);
}

TEST_F(TopologyTest, TopologyKindRoundTrips)
{
    for (const auto &row : kTopologyKinds.all()) {
        EXPECT_EQ(kTopologyKinds.parse(row.token), row.value);
        EXPECT_EQ(kTopologyKinds.parse(kTopologyKinds.name(row.value)),
                  row.value);
    }
    EXPECT_THROW(kTopologyKinds.parse("hypercube"), FatalError);
    EXPECT_NE(kTopologyKinds.list().find("fat-tree"), std::string::npos);
}

// --------------------------------------------------- config validation

TEST_F(TopologyTest, FabricConfigValidateRejectsNonsense)
{
    FabricConfig good;
    EXPECT_NO_THROW(good.validate());

    FabricConfig bad = good;
    bad.linkBandwidth = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.numDevices = 0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.numSockets = 0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.pcieEfficiency = 1.5;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.memNodeBandwidth = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.socketBandwidth = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.peakWindow = 0;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST_F(TopologyTest, SystemConstructionValidatesTheFabric)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.device.linkBandwidth = -5.0; // propagates into the fabric
    EXPECT_THROW(System(eq, cfg), FatalError);
}

TEST_F(TopologyTest, TopologyOverrideRequiresMemoryNodes)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    cfg.fabric.topology = TopologyKind::Mesh2d;
    EXPECT_THROW(System(eq, cfg), FatalError);
}

// ------------------------------------------- collective algorithms

/** All-reduce completion time on a fresh fabric of @p kind. */
Tick
allReduceTicks(TopologyKind kind, CollectiveAlgorithm algo,
               double bytes, int devices)
{
    EventQueue eq;
    FabricConfig cfg;
    cfg.numDevices = devices;
    cfg.switchRadix = 4 * devices;
    auto fabric = buildTopologyFabric(eq, cfg, kind);
    CollectiveConfig ccfg;
    ccfg.algorithm = algo;
    CollectiveEngine engine(eq, "test.nccl", *fabric, ccfg);
    Tick done = 0;
    engine.launch(CollectiveKind::AllReduce, bytes,
                  [&] { done = eq.now(); });
    eq.run();
    EXPECT_GT(done, 0u);
    return done;
}

TEST_F(TopologyTest, TreeBeatsRingForSmallPayloadsAndLosesForLarge)
{
    // Same topology (the fully-connected switch), same payload axis:
    // the binomial tree's O(log n) rounds win while latency
    // dominates, and lose once every hop must move the full payload.
    const Tick ring_small = allReduceTicks(
        TopologyKind::FullSwitch, CollectiveAlgorithm::Ring, 64e3, 16);
    const Tick tree_small = allReduceTicks(
        TopologyKind::FullSwitch, CollectiveAlgorithm::Tree, 64e3, 16);
    EXPECT_LT(tree_small, ring_small);

    const Tick ring_large = allReduceTicks(
        TopologyKind::FullSwitch, CollectiveAlgorithm::Ring, 64e6, 16);
    const Tick tree_large = allReduceTicks(
        TopologyKind::FullSwitch, CollectiveAlgorithm::Tree, 64e6, 16);
    EXPECT_GT(tree_large, ring_large);
}

TEST_F(TopologyTest, HierarchicalBeatsFlatRingOnScaleOutFabric)
{
    // On the switched scale-out fabric the flat ring serializes 2n
    // stages of switch latency; two-level reduction cuts that.
    const Tick flat = allReduceTicks(TopologyKind::FullSwitch,
                                     CollectiveAlgorithm::Ring, 64e3,
                                     16);
    const Tick hier = allReduceTicks(TopologyKind::FullSwitch,
                                     CollectiveAlgorithm::Hierarchical,
                                     64e3, 16);
    EXPECT_LT(hier, flat);
}

TEST_F(TopologyTest, CollectiveAlgorithmRoundTrips)
{
    for (const auto &row : kCollectiveAlgorithms.all())
        EXPECT_EQ(kCollectiveAlgorithms.parse(row.token), row.value);
    EXPECT_EQ(kCollectiveAlgorithms.parse("hier"),
              CollectiveAlgorithm::Hierarchical);
    EXPECT_THROW(kCollectiveAlgorithms.parse("butterfly"), FatalError);
}

TEST_F(TopologyTest, TreeCollectiveCompletesEveryKind)
{
    EventQueue eq;
    FabricConfig cfg;
    auto fabric = buildMcdlaRingFabric(eq, cfg);
    CollectiveConfig ccfg;
    ccfg.algorithm = CollectiveAlgorithm::Tree;
    CollectiveEngine engine(eq, "test.nccl", *fabric, ccfg);
    int completed = 0;
    for (CollectiveKind kind :
         {CollectiveKind::AllReduce, CollectiveKind::AllGather,
          CollectiveKind::ReduceScatter, CollectiveKind::Broadcast}) {
        engine.launch(kind, 1e6, [&] { ++completed; }, /*root=*/3);
        eq.run();
    }
    EXPECT_EQ(completed, 4);
    EXPECT_EQ(engine.opsCompleted(), 4u);
}

// --------------------------------------------- scenario / label wiring

TEST_F(TopologyTest, ScenarioLabelCarriesInterconnectOverrides)
{
    Scenario sc;
    EXPECT_EQ(sc.label(), "ResNet/mc-b/dp/b512");
    sc.base.fabric.topology = TopologyKind::Torus2d;
    sc.base.collectiveAlgorithm = CollectiveAlgorithm::Tree;
    EXPECT_EQ(sc.label(), "ResNet/mc-b/dp/b512/torus2d/tree");
}

TEST_F(TopologyTest, TrainingRunsOnGenericTopologies)
{
    // A full training iteration routes collectives, paging DMA, and
    // weight updates over the generated graphs end to end.
    Simulator sim;
    for (TopologyKind kind :
         {TopologyKind::Mesh2d, TopologyKind::FatTree}) {
        Scenario sc;
        sc.workload = "AlexNet";
        sc.globalBatch = 64;
        sc.base.fabric.topology = kind;
        const IterationResult result = sim.run(sc);
        EXPECT_GT(result.makespan, 0u) << kTopologyKinds.token(kind);
        EXPECT_GT(result.syncBytes, 0.0);
    }
}

// --------------------------------------------------- job placement

TEST_F(TopologyTest, CompactPlacementUsesRealHopCounts)
{
    EventQueue eq;
    auto fab = buildMcdlaRingFabric(eq, testConfig());

    // A contiguous free set degrades to the legacy first-fit choice.
    const std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(placeJobDevices(*fab, all, 3, JobPlacement::First),
              (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(placeJobDevices(*fab, all, 3, JobPlacement::Compact),
              (std::vector<int>{0, 1, 2}));

    // Fragmented free set: first-fit takes the low indices; compact
    // notices 1 and 7 are ring neighbors (4 channel traversals round
    // trip) while 1 and 4 are antipodal (12).
    const std::vector<int> frag{1, 4, 7};
    EXPECT_EQ(placeJobDevices(*fab, frag, 2, JobPlacement::First),
              (std::vector<int>{1, 4}));
    EXPECT_EQ(placeJobDevices(*fab, frag, 2, JobPlacement::Compact),
              (std::vector<int>{1, 7}));

    // Asking for everything hands back the whole free set.
    EXPECT_EQ(
        placeJobDevices(*fab, frag, 3, JobPlacement::Compact).size(),
        3u);
}

TEST_F(TopologyTest, PlacementTokenRoundTrips)
{
    EXPECT_EQ(kJobPlacements.parse("first"), JobPlacement::First);
    EXPECT_EQ(kJobPlacements.parse("compact"), JobPlacement::Compact);
    EXPECT_STREQ(kJobPlacements.token(JobPlacement::Compact), "compact");
    EXPECT_THROW(kJobPlacements.parse("spread"), FatalError);
}

TEST_F(TopologyTest, CompactClusterRunsJobsOnAdjacentDevices)
{
    ClusterConfig cfg;
    cfg.base.workload = "AlexNet";
    cfg.placement = JobPlacement::Compact;

    std::vector<JobSpec> jobs;
    for (int j = 0; j < 2; ++j) {
        JobSpec spec;
        spec.name = "job" + std::to_string(j);
        spec.workload = "AlexNet";
        spec.batch = 64;
        spec.devices = 2;
        spec.arrivalSec = 0.0;
        jobs.push_back(spec);
    }
    Cluster cluster(cfg, std::move(jobs));
    const ClusterReport report = cluster.run();
    EXPECT_EQ(report.placement, JobPlacement::Compact);
    ASSERT_EQ(report.completedJobs(), 2u);
    for (const JobOutcome &job : report.jobs) {
        ASSERT_EQ(job.devices.size(), 2u);
        // Ring neighbors: two channel traversals apart.
        EXPECT_EQ(cluster.system().fabric().deviceHopCount(
                      job.devices[0], job.devices[1]),
                  2);
    }
}

// ------------------------------------------ per-channel utilization

TEST_F(TopologyTest, IterationResultSurfacesChannelUsage)
{
    Simulator sim;
    Scenario sc;
    sc.workload = "AlexNet";
    sc.globalBatch = 64;
    const IterationResult result = sim.run(sc);

    ASSERT_FALSE(result.channels.empty());
    double max_util = 0.0;
    double total_bytes = 0.0;
    for (const ChannelUsage &usage : result.channels) {
        EXPECT_FALSE(usage.channel.empty());
        EXPECT_GE(usage.utilization, 0.0);
        EXPECT_LE(usage.utilization, 1.0 + 1e-9);
        max_util = std::max(max_util, usage.utilization);
        total_bytes += usage.bytes;
    }
    EXPECT_GT(total_bytes, 0.0);

    const ChannelUsage *bottleneck = result.bottleneckChannel();
    ASSERT_NE(bottleneck, nullptr);
    EXPECT_DOUBLE_EQ(bottleneck->utilization, max_util);

    // The CSV pipeline emits one row per channel.
    ResultSet table(channelUsageColumns());
    appendChannelUsageRows(table, sc.label(), result);
    EXPECT_EQ(table.rowCount(), result.channels.size());
    EXPECT_EQ(std::get<std::string>(table.cell(0, 0)), sc.label());
}

// ------------------------------------------------------- fabric census

/**
 * The whole wiring of @p fab as text: every channel in creation order
 * (name, bandwidth, latency, graph endpoints, routability), every
 * collective ring (stages and the channels of each hop), every
 * device's vmem paths, and deviceRoute() for every ordered device
 * pair. Two fabrics with equal censuses simulate identically.
 */
std::string
fabricCensus(const Fabric &fab)
{
    const Topology &topo = fab.topology();
    std::map<const Channel *, const TopoLink *> linkOf;
    for (const TopoLink &link : topo.links())
        linkOf.emplace(link.channel, &link);

    std::ostringstream os;
    os << std::setprecision(17);
    for (const Channel *ch : fab.channels()) {
        os << "channel " << ch->name() << " bw=" << ch->bandwidth()
           << " lat=" << ch->latency();
        auto it = linkOf.find(ch);
        if (it == linkOf.end())
            os << " unlinked\n";
        else
            os << ' ' << topo.nodeName(it->second->src) << "->"
               << topo.nodeName(it->second->dst)
               << (it->second->routable ? " routable\n" : " local\n");
    }
    auto route = [&os](const Route &r) {
        for (const Channel *ch : r.hops)
            os << ' ' << ch->name();
    };
    for (std::size_t i = 0; i < fab.rings().size(); ++i) {
        const RingPath &ring = fab.rings()[i];
        os << "ring " << i << '\n';
        for (std::size_t s = 0; s < ring.stages.size(); ++s) {
            os << "  " << (ring.stages[s].isDevice ? 'D' : 'M')
               << ring.stages[s].index << " ->";
            if (s < ring.hops.size())
                route(ring.hops[s]);
            os << '\n';
        }
    }
    const int devices = topo.count(NodeKind::Device);
    for (int d = 0; d < devices; ++d) {
        for (const VmemPath &path : fab.vmemPaths(d)) {
            os << "vmem D" << d << " target " << path.targetIndex
               << '\n';
            for (const Route &w : path.writeRoutes) {
                os << "  write";
                route(w);
                os << '\n';
            }
            for (const Route &r : path.readRoutes) {
                os << "  read";
                route(r);
                os << '\n';
            }
        }
    }
    for (int s = 0; s < devices; ++s) {
        for (int d = 0; d < devices; ++d) {
            if (s == d)
                continue;
            os << "route D" << s << "->D" << d << ':';
            route(fab.deviceRoute(s, d));
            os << '\n';
        }
    }
    return os.str();
}

/** 64-bit FNV-1a of @p text. */
std::uint64_t
censusDigest(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** One pinned fabric: its builder token, device count and digest. */
struct CensusCase
{
    const char *fabric;
    int devices;
    std::uint64_t digest;
};

/** Build the fabric a census case names (design or --topology token). */
std::unique_ptr<Fabric>
buildCensusFabric(EventQueue &eq, const std::string &fabric, int devices)
{
    FabricConfig cfg = testConfig(devices);
    // The switch planes seat every node; the default radix stops at 9
    // devices.
    if (fabric == "mc-x" || fabric == "full-switch")
        cfg.switchRadix = std::max(cfg.switchRadix, 2 * devices);
    const std::map<std::string,
                   std::function<std::unique_ptr<Fabric>()>>
        builders = {
            {"dc", [&] { return buildDcdlaFabric(eq, cfg, true); }},
            {"oracle", [&] { return buildDcdlaFabric(eq, cfg, false); }},
            {"hc", [&] { return buildHcdlaFabric(eq, cfg); }},
            {"mc-s", [&] { return buildMcdlaStarFabric(eq, cfg); }},
            {"mc-sa", [&] { return buildMcdlaStarAFabric(eq, cfg); }},
            {"mc-b", [&] { return buildMcdlaRingFabric(eq, cfg); }},
            {"mc-x", [&] { return buildMcdlaSwitchFabric(eq, cfg); }},
        };
    auto it = builders.find(fabric);
    if (it != builders.end())
        return it->second();
    return buildTopologyFabric(eq, cfg, kTopologyKinds.parse(fabric));
}

void
expectCensus(const std::vector<CensusCase> &cases)
{
    for (const CensusCase &c : cases) {
        EventQueue eq;
        const auto fab = buildCensusFabric(eq, c.fabric, c.devices);
        const std::string census = fabricCensus(*fab);
        const std::uint64_t digest = censusDigest(census);
        if (digest != c.digest)
            ADD_FAILURE() << c.fabric << " x" << c.devices
                          << " census digest 0x" << std::hex << digest
                          << " (pinned 0x" << c.digest << std::dec
                          << "):\n" << census;
    }
}

TEST(FabricCensus, DesignFabricsKeepTheirWiring)
{
    expectCensus({
        {"dc", 1, 0x1b01ba9f48fc5615ull},
        {"dc", 2, 0x82ce54b6f449fbc0ull},
        {"dc", 4, 0xcd4386b1dd690621ull},
        {"dc", 8, 0x4b2eb9a88e606b95ull},
        {"dc", 16, 0x315889f3d1945ce9ull},
        {"dc", 32, 0x977df8f34f354c4bull},
        {"oracle", 1, 0x6a141c6abb92d3d1ull},
        {"oracle", 2, 0x9e029c3e4b4dc83bull},
        {"oracle", 4, 0xab3073f2b395aee9ull},
        {"oracle", 8, 0xa0251889f16c1dedull},
        {"oracle", 16, 0xc870f2df5f29e36full},
        {"oracle", 32, 0x495f832bc39497d9ull},
        {"hc", 2, 0x7c80a9e68e7b12cbull},
        {"hc", 4, 0x18556a6510182c44ull},
        {"hc", 8, 0xdb6c0d602e6efeeeull},
        {"hc", 16, 0x16415ae633e815daull},
        {"hc", 32, 0x444776619dc6f8f6ull},
        {"mc-s", 2, 0xe6f3fd8a2d91bd98ull},
        {"mc-s", 4, 0xde5e1b0ca53944e8ull},
        {"mc-s", 8, 0xd042dc9894e1c9f4ull},
        {"mc-s", 16, 0xd2d114bc6a24afaeull},
        {"mc-s", 32, 0x4332f65b19f4bff6ull},
        {"mc-sa", 2, 0x5c5b0a867020360cull},
        {"mc-sa", 4, 0xe35de57c703ba5cull},
        {"mc-sa", 8, 0xda1144d739120074ull},
        {"mc-sa", 16, 0x86eabc406e799c38ull},
        {"mc-sa", 32, 0x15eaa213f1a2040aull},
        {"mc-b", 1, 0xcf6b1146493f93a9ull},
        {"mc-b", 2, 0xfe25f88143aead69ull},
        {"mc-b", 4, 0xc754f3864437b64ull},
        {"mc-b", 8, 0x4bc91c12f20f1cccull},
        {"mc-b", 16, 0xb1fb6c540c4ba526ull},
        {"mc-b", 32, 0x7267c90e13f5d2f0ull},
        {"mc-x", 1, 0x75a6162cf81a70e1ull},
        {"mc-x", 2, 0x7f93c4323a668b1dull},
        {"mc-x", 4, 0x87342e4e04d2b648ull},
        {"mc-x", 8, 0xe92af39e99b14d5cull},
        {"mc-x", 16, 0x6f68f8ae07323250ull},
        {"mc-x", 32, 0x9453962cc484a2f2ull},
    });
}

TEST(FabricCensus, TopologyFabricsKeepTheirWiring)
{
    expectCensus({
        {"ring", 2, 0xfe25f88143aead69ull},
        {"ring", 4, 0xc754f3864437b64ull},
        {"ring", 8, 0x4bc91c12f20f1cccull},
        {"ring", 16, 0xb1fb6c540c4ba526ull},
        {"full-switch", 2, 0x7f93c4323a668b1dull},
        {"full-switch", 4, 0x87342e4e04d2b648ull},
        {"full-switch", 8, 0xe92af39e99b14d5cull},
        {"full-switch", 16, 0x6f68f8ae07323250ull},
        {"mesh2d", 2, 0x86afe163178950c5ull},
        {"mesh2d", 4, 0x898ab66756d2c33cull},
        {"mesh2d", 8, 0x663cb713769b3520ull},
        {"mesh2d", 16, 0xccf0b1d91130872cull},
        {"torus2d", 2, 0xee53955cd3703fbfull},
        {"torus2d", 4, 0x55bb17f892554190ull},
        {"torus2d", 8, 0x3b77bbf9187c7550ull},
        {"torus2d", 16, 0x828c109c604cb594ull},
        {"fat-tree", 2, 0xbf940bbcf40d5409ull},
        {"fat-tree", 4, 0xb6a079381c88b380ull},
        {"fat-tree", 8, 0xda1914621c304e18ull},
        {"fat-tree", 16, 0x73c5e2244177b034ull},
    });
}

} // anonymous namespace
} // namespace mcdla
