/**
 * @file
 * Generic topology generators: 2-D mesh, 2-D torus, and a two-level
 * fat-tree over the memory-centric node set, plus the dispatcher that
 * maps a TopologyKind to its builder.
 *
 * These open the interconnect itself as a sweep axis: the same
 * device/memory-node population the paper wires as Fig 7(c) rings can
 * be rewired as a mesh, torus, or fat-tree and driven through the
 * identical System/TrainingSession stack — collectives, paging DMA,
 * and pipeline boundary transfers all route over the generated graph.
 *
 * Conventions shared with the legacy builders:
 *  - every memory-node's DIMM bus is a non-routable self-link,
 *  - vmem write routes end on the DIMM bus, read routes start on it,
 *  - collective rings are logical unidirectional rings whose hops are
 *    multi-channel Routes (intermediate nodes store-and-forward).
 */

#include <algorithm>
#include <cmath>
#include <string>

#include "interconnect/fabrics.hh"
#include "sim/logging.hh"

namespace mcdla
{

namespace
{

/** Most-square rows x cols factorization of @p n (rows <= cols). */
std::pair<int, int>
gridShape(int n)
{
    int rows = std::max(1, static_cast<int>(std::sqrt(
                               static_cast<double>(n))));
    while (n % rows != 0)
        --rows;
    return {rows, n / rows};
}

/**
 * Add the forward and reverse logical collective rings over @p order
 * (device indices forming one cycle), with hops routed on the graph's
 * shortest paths. Every device is a ring-algorithm stage; intermediate
 * nodes of a multi-hop route store-and-forward.
 */
void
addRoutedRings(Fabric &fab, const std::vector<int> &order)
{
    if (order.size() < 2)
        return;
    const Router &router = fab.router();
    const std::size_t n = order.size();

    for (int dir = 0; dir < 2; ++dir) {
        RingPath ring;
        for (std::size_t s = 0; s < n; ++s) {
            const std::size_t at = dir == 0 ? s : (n - s) % n;
            const std::size_t to =
                dir == 0 ? (s + 1) % n : (n - s - 1) % n;
            const int src = order[at];
            const int dst = order[to];
            Route hop = router.route(src, dst);
            if (!hop.valid())
                fatal("topology generator: no route between ring "
                      "members D%d and D%d", src, dst);
            ring.stages.push_back(RingStage{true, src});
            ring.hops.push_back(std::move(hop));
        }
        fab.addRing(std::move(ring));
    }
}

} // anonymous namespace

std::unique_ptr<Fabric>
buildMesh2dFabric(EventQueue &eq, const FabricConfig &cfg, bool wrap)
{
    const int n = cfg.numDevices;
    if (n < 1)
        fatal("mesh topology requires at least one device");
    auto fab = std::make_unique<Fabric>(eq, wrap ? "torus2d" : "mesh2d");
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    std::vector<Channel *> mem = makeMemoryNodeBuses(*fab, cfg, n);

    const auto [rows, cols] = gridShape(n);
    auto at = [cols = cols](int r, int c) { return r * cols + c; };
    auto pair_link = [&](int a, int b, const std::string &base) {
        topo.duplex(topo.device(a), topo.device(b), base + ".fwd",
                    base + ".bwd", cfg.linkBandwidth, cfg.linkLatency);
    };
    auto edge_name = [](int a, int b) {
        return "grid.d" + std::to_string(a) + "-d" + std::to_string(b);
    };

    // Grid links: horizontal then vertical, row-major; torus adds the
    // wraparound edge per dimension of extent >= 3 (a 2-wide dimension
    // already has the direct link).
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c + 1 < cols; ++c)
            pair_link(at(r, c), at(r, c + 1),
                      edge_name(at(r, c), at(r, c + 1)));
    if (wrap && cols >= 3)
        for (int r = 0; r < rows; ++r)
            pair_link(at(r, cols - 1), at(r, 0),
                      edge_name(at(r, cols - 1), at(r, 0)));
    for (int c = 0; c < cols; ++c)
        for (int r = 0; r + 1 < rows; ++r)
            pair_link(at(r, c), at(r + 1, c),
                      edge_name(at(r, c), at(r + 1, c)));
    if (wrap && rows >= 3)
        for (int c = 0; c < cols; ++c)
            pair_link(at(rows - 1, c), at(0, c),
                      edge_name(at(rows - 1, c), at(0, c)));

    // Memory attachment: the grid consumes up to 4 of the device's 2 *
    // numRings links; the remainder (>= 1) are dedicated device <->
    // memory-node lanes.
    const int lanes = std::max(1, 2 * cfg.numRings - 4);
    for (int d = 0; d < n; ++d) {
        VmemPath path{d, {}, {}};
        for (int l = 0; l < lanes; ++l) {
            const std::string lane =
                "d" + std::to_string(d) + ".mem" + std::to_string(l);
            path.addLane({topo.duplex(topo.device(d), topo.memoryNode(d),
                                      lane + ".d2m", lane + ".m2d",
                                      cfg.linkBandwidth, cfg.linkLatency)},
                         mem[static_cast<std::size_t>(d)]);
        }
        fab->setVmemPaths(d, {std::move(path)});
    }

    // Collective rings: the serpentine grid traversal (row 0 left to
    // right, row 1 right to left, ...). Row transitions are vertical
    // neighbors; the closing hop folds back through the grid (or rides
    // the wraparound links on a torus).
    if (n >= 2) {
        std::vector<int> order;
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c)
                order.push_back(
                    at(r, r % 2 == 0 ? c : cols - 1 - c));
        }
        addRoutedRings(*fab, order);
    }
    return fab;
}

std::unique_ptr<Fabric>
buildFatTreeFabric(EventQueue &eq, const FabricConfig &cfg)
{
    const int n = cfg.numDevices;
    if (n < 1)
        fatal("fat-tree topology requires at least one device");
    const int k = cfg.switchRadix;
    const int leaf_slots = k / 2;
    if (leaf_slots < 2)
        fatal("fat-tree requires switch radix >= 4 (got %d)", k);
    const int num_leaves = (2 * n + leaf_slots - 1) / leaf_slots;
    const int num_spines = num_leaves > 1 ? k / 2 : 0;
    if (num_leaves > k)
        fatal("fat-tree radix %d cannot seat %d nodes (%d leaves > %d "
              "spine ports); use a larger switch radix",
              k, 2 * n, num_leaves, k);

    auto fab = std::make_unique<Fabric>(eq, "fat_tree");
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    std::vector<Channel *> mem = makeMemoryNodeBuses(*fab, cfg, n);

    // Slot assignment: D0, M0, D1, M1, ... so a device and its
    // memory-node land on the same leaf whenever slots allow.
    auto leaf_of_slot = [leaf_slots](int slot) {
        return slot / leaf_slots;
    };
    auto device_slot = [](int d) { return 2 * d; };
    auto mem_slot = [](int d) { return 2 * d + 1; };

    // Node <-> leaf links, then one leaf <-> spine link per (leaf,
    // spine), each seated as on the Fig 15 planes.
    std::vector<DuplexLink> dLink, mLink;
    for (int d = 0; d < n; ++d) {
        dLink.push_back(seatOnSwitch(
            topo, cfg, topo.device(d),
            topo.switchNode(leaf_of_slot(device_slot(d))),
            "d" + std::to_string(d)));
        mLink.push_back(seatOnSwitch(
            topo, cfg, topo.memoryNode(d),
            topo.switchNode(leaf_of_slot(mem_slot(d))),
            "m" + std::to_string(d)));
    }
    std::vector<std::vector<DuplexLink>> uplink(
        static_cast<std::size_t>(num_leaves));
    for (int l = 0; l < num_leaves; ++l)
        for (int s = 0; s < num_spines; ++s)
            uplink[static_cast<std::size_t>(l)].push_back(seatOnSwitch(
                topo, cfg, topo.switchNode(l),
                topo.switchNode(num_leaves + s),
                "l" + std::to_string(l) + "-s" + std::to_string(s)));

    // vmem paths: device d to its own memory-node — two channel hops
    // on a shared leaf, four through spine 0 otherwise.
    for (int d = 0; d < n; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        const auto dleaf =
            static_cast<std::size_t>(leaf_of_slot(device_slot(d)));
        const auto mleaf =
            static_cast<std::size_t>(leaf_of_slot(mem_slot(d)));
        VmemPath path{d, {}, {}};
        if (dleaf == mleaf)
            path.addLane({dLink[ud], mLink[ud].flipped()}, mem[ud]);
        else
            path.addLane({dLink[ud], uplink[dleaf][0],
                          uplink[mleaf][0].flipped(), mLink[ud].flipped()},
                         mem[ud]);
        fab->setVmemPaths(d, {std::move(path)});
    }

    // Collective rings: devices in index order; the Router folds each
    // hop through the shared leaf (2 channels) or a spine (4).
    if (n >= 2) {
        std::vector<int> order(static_cast<std::size_t>(n));
        for (int d = 0; d < n; ++d)
            order[static_cast<std::size_t>(d)] = d;
        addRoutedRings(*fab, order);
    }
    return fab;
}

std::unique_ptr<Fabric>
buildTopologyFabric(EventQueue &eq, const FabricConfig &cfg,
                    TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Design:
        fatal("TopologyKind::Design names the system design's own "
              "fabric; resolve it before calling buildTopologyFabric");
      case TopologyKind::Ring:
        return buildMcdlaRingFabric(eq, cfg);
      case TopologyKind::FullSwitch:
        return buildMcdlaSwitchFabric(eq, cfg);
      case TopologyKind::Mesh2d:
        return buildMesh2dFabric(eq, cfg, /*wrap=*/false);
      case TopologyKind::Torus2d:
        return buildMesh2dFabric(eq, cfg, /*wrap=*/true);
      case TopologyKind::FatTree:
        return buildFatTreeFabric(eq, cfg);
    }
    panic("unhandled topology kind %d", static_cast<int>(kind));
}

} // namespace mcdla
