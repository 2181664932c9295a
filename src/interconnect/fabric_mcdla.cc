/**
 * @file
 * Memory-centric fabric builders: MC-DLA ring (Fig 7c), star (Fig 7b),
 * and the naive star-A derivative (Fig 7a).
 *
 * Re-expressed as Topology generators: every link channel is created
 * through the fabric's graph (devices and memory-nodes as vertices),
 * with channel names, parameters, and creation order unchanged from
 * the hand-built originals — the channel graph is byte-identical. The
 * DIMM buses are non-routable terminal resources.
 */

#include <string>

#include "interconnect/fabrics.hh"
#include "sim/logging.hh"

namespace mcdla
{

namespace
{

std::string
segName(const char *kind, int ring, int i, const char *dir)
{
    return std::string(kind) + std::to_string(ring) + ".seg"
        + std::to_string(i) + "." + dir;
}

/**
 * The star designs' physical link @p kind at position @p i, from
 * node @p a (channel "<kind>0.seg<i>.<out>") to @p b ("...<back>").
 */
DuplexLink
segLink(Topology &topo, const FabricConfig &cfg, int a, int b,
        const char *kind, int i, const char *out, const char *back)
{
    return topo.duplex(a, b, segName(kind, 0, i, out),
                       segName(kind, 0, i, back), cfg.linkBandwidth,
                       cfg.linkLatency);
}

/**
 * vmem of the star designs: each device reaches only its designated
 * memory-node, over the two dm links (2 x 25 = 50 GB/s).
 */
void
setDesignatedVmemPaths(Fabric &fab, const std::vector<DuplexLink> &dm1,
                       const std::vector<DuplexLink> &dm2,
                       const std::vector<Channel *> &mem)
{
    for (std::size_t d = 0; d < mem.size(); ++d) {
        VmemPath path{static_cast<int>(d), {}, {}};
        path.addLane({dm1[d]}, mem[d]);
        path.addLane({dm2[d]}, mem[d]);
        fab.setVmemPaths(static_cast<int>(d), {std::move(path)});
    }
}

} // anonymous namespace

std::vector<Channel *>
makeMemoryNodeBuses(Fabric &fab, const FabricConfig &cfg, int count)
{
    Topology &topo = fab.topology();
    std::vector<Channel *> mem;
    for (int m = 0; m < count; ++m) {
        const int node = topo.memoryNode(m);
        Channel &ch = topo.link(node, node,
                                "m" + std::to_string(m) + ".dimms",
                                cfg.memNodeBandwidth, cfg.memNodeLatency,
                                /*routable=*/false);
        fab.registerMemNodeChannel(m, &ch);
        mem.push_back(&ch);
    }
    return mem;
}

void
setNeighborVmemPaths(Fabric &fab, int device, VmemPath right,
                     VmemPath left)
{
    if (left.targetIndex != right.targetIndex) {
        fab.setVmemPaths(device, {std::move(right), std::move(left)});
        return;
    }
    for (Route &route : left.writeRoutes)
        right.writeRoutes.push_back(std::move(route));
    for (Route &route : left.readRoutes)
        right.readRoutes.push_back(std::move(route));
    fab.setVmemPaths(device, {std::move(right)});
}

std::unique_ptr<Fabric>
buildMcdlaRingFabric(EventQueue &eq, const FabricConfig &cfg)
{
    if (cfg.numDevices < 1)
        fatal("MC-DLA ring fabric requires at least one device");
    auto fab = std::make_unique<Fabric>(eq, "mcdla_ring");
    const int n = cfg.numDevices;
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    std::vector<Channel *> mem = makeMemoryNodeBuses(*fab, cfg, n);

    // Per ring r and position i, two physical links around memory-node
    // M_i, their four channels created in the order
    //   toMem.out  : D_i     -> M_i      (right-bound write / ring fwd)
    //   toNext.out : M_i     -> D_{i+1}  (ring fwd)
    //   toNext.back: D_{i+1} -> M_i      (left-bound write / ring bwd)
    //   toMem.back : M_i     -> D_i      (right read / ring bwd)
    const auto R = static_cast<std::size_t>(cfg.numRings);
    std::vector<std::vector<DuplexLink>> toMem(R), toNext(R);
    for (std::size_t r = 0; r < R; ++r) {
        const auto ri = static_cast<int>(r);
        for (int i = 0; i < n; ++i) {
            const int di = topo.device(i);
            const int dn = topo.device((i + 1) % n);
            const int mi = topo.memoryNode(i);
            auto seg = [&](int src, int dst, const char *dir) {
                return &topo.link(src, dst, segName("ring", ri, i, dir),
                                  cfg.linkBandwidth, cfg.linkLatency);
            };
            DuplexLink &mem_link = toMem[r].emplace_back();
            DuplexLink &next_link = toNext[r].emplace_back();
            mem_link.out = seg(di, mi, "d2m");
            next_link.out = seg(mi, dn, "m2dn");
            next_link.back = seg(dn, mi, "dn2m");
            mem_link.back = seg(mi, di, "m2d");
        }
    }

    // Collective rings (only meaningful with >= 2 devices). Stages
    // alternate D and M: every memory-node is a full ring participant
    // (2n stages), which is the paper's Figure 9 cost model.
    if (n >= 2) {
        for (std::size_t r = 0; r < R; ++r) {
            std::vector<RingLeg> legs;
            for (int i = 0; i < n; ++i) {
                const auto ui = static_cast<std::size_t>(i);
                legs.push_back({{true, i}, {toMem[r][ui]}});
                legs.push_back({{false, i}, {toNext[r][ui]}});
            }
            fab->addRingPair(legs);
        }
    }

    // Memory-virtualization paths: right target M_d over the toMem
    // links, left target M_{d-1} over the toNext links at d-1 walked
    // backward.
    for (int d = 0; d < n; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        const int left = (d - 1 + n) % n;
        const auto ul = static_cast<std::size_t>(left);
        VmemPath right{d, {}, {}};
        VmemPath left_path{left, {}, {}};
        for (std::size_t r = 0; r < R; ++r) {
            right.addLane({toMem[r][ud]}, mem[ud]);
            left_path.addLane({toNext[r][ul].flipped()}, mem[ul]);
        }
        setNeighborVmemPaths(*fab, d, std::move(right),
                             std::move(left_path));
    }
    return fab;
}

std::unique_ptr<Fabric>
buildMcdlaStarFabric(EventQueue &eq, const FabricConfig &cfg)
{
    if (cfg.numDevices < 2 || cfg.numDevices % 2 != 0)
        fatal("MC-DLA star fabric requires an even device count >= 2");
    auto fab = std::make_unique<Fabric>(eq, "mcdla_star");
    const int n = cfg.numDevices;
    const auto N = static_cast<std::size_t>(n);
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    std::vector<Channel *> mem = makeMemoryNodeBuses(*fab, cfg, n);

    // Physical links: ring 1's direct device links, gray direct links
    // on odd edges only, designated device<->memory links (x2 per
    // pair), cross links M_i <-> D_{i+1} and memory-to-memory links
    // M_i <-> M_{i+1}.
    std::vector<DuplexLink> r1(N), gray(N), dm1(N), dm2(N), x(N), mm(N);
    for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const int di = topo.device(i);
        const int dn = topo.device((i + 1) % n);
        const int mi = topo.memoryNode(i);
        const int mn = topo.memoryNode((i + 1) % n);
        r1[ui] = segLink(topo, cfg, di, dn, "r1", i, "fwd", "bwd");
        if (i % 2 == 1)
            gray[ui] = segLink(topo, cfg, di, dn, "gray", i, "fwd", "bwd");
        dm1[ui] = segLink(topo, cfg, di, mi, "dm1", i, "d2m", "m2d");
        dm2[ui] = segLink(topo, cfg, di, mi, "dm2", i, "d2m", "m2d");
        x[ui] = segLink(topo, cfg, mi, dn, "x", i, "m2dn", "dn2m");
        mm[ui] = segLink(topo, cfg, mi, mn, "mm", i, "fwd", "bwd");
    }

    // Ring 1 (8 stages): direct device ring. Ring 2 (gray, 12 stages):
    // even hops route through M_i, odd hops use the direct gray link.
    // Ring 3 (dotted, 20 stages): even hops D->M->M->D, odd hops D->M->D
    // (sharing the designated and cross links).
    std::vector<RingLeg> ring1, ring2, ring3;
    for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const auto un = static_cast<std::size_t>((i + 1) % n);
        ring1.push_back({{true, i}, {r1[ui]}});
        if (i % 2 == 0) {
            ring2.push_back({{true, i}, {dm1[ui]}});
            ring2.push_back({{false, i}, {x[ui]}});
            ring3.push_back({{true, i}, {dm2[ui]}});
            ring3.push_back({{false, i}, {mm[ui]}});
            ring3.push_back({{false, (i + 1) % n}, {dm2[un].flipped()}});
        } else {
            ring2.push_back({{true, i}, {gray[ui]}});
            ring3.push_back({{true, i}, {dm1[ui]}});
            ring3.push_back({{false, i}, {x[ui]}});
        }
    }
    fab->addRingPair(ring1);
    fab->addRingPair(ring2);
    fab->addRingPair(ring3);

    setDesignatedVmemPaths(*fab, dm1, dm2, mem);
    return fab;
}

std::unique_ptr<Fabric>
buildMcdlaStarAFabric(EventQueue &eq, const FabricConfig &cfg)
{
    if (cfg.numDevices < 2)
        fatal("MC-DLA star-A fabric requires at least two devices");
    auto fab = std::make_unique<Fabric>(eq, "mcdla_star_a");
    const int n = cfg.numDevices;
    const auto N = static_cast<std::size_t>(n);
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    std::vector<Channel *> mem = makeMemoryNodeBuses(*fab, cfg, n);

    // Physical links: two direct device rings (gray, dotted),
    // designated device<->memory links (x2) and M<->M links, plus a
    // second M<->M link set ("mm2") that forms the unused memory-only
    // 4th ring.
    std::vector<DuplexLink> g1(N), g2(N), dm1(N), dm2(N), mm(N);
    for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const int di = topo.device(i);
        const int dn = topo.device((i + 1) % n);
        const int mi = topo.memoryNode(i);
        const int mn = topo.memoryNode((i + 1) % n);
        g1[ui] = segLink(topo, cfg, di, dn, "g1", i, "fwd", "bwd");
        g2[ui] = segLink(topo, cfg, di, dn, "g2", i, "fwd", "bwd");
        dm1[ui] = segLink(topo, cfg, di, mi, "dm1", i, "d2m", "m2d");
        dm2[ui] = segLink(topo, cfg, di, mi, "dm2", i, "d2m", "m2d");
        mm[ui] = segLink(topo, cfg, mi, mn, "mm", i, "fwd", "bwd");
        segLink(topo, cfg, mi, mn, "mm2", i, "fwd", "bwd");
    }

    auto direct = [n](const std::vector<DuplexLink> &links) {
        std::vector<RingLeg> legs;
        for (int i = 0; i < n; ++i)
            legs.push_back(
                {{true, i}, {links[static_cast<std::size_t>(i)]}});
        return legs;
    };
    fab->addRingPair(direct(g1));
    fab->addRingPair(direct(g2));

    // Black ring (24 stages), one ring per direction over different
    // designated lanes: ascending device order, each device hop
    // D_j -> M_j -> M_{j+1} -> D_{j+1} (footnote 1: every memory-node
    // is visited twice around the full traversal).
    auto ascending = [n, &mm](const std::vector<DuplexLink> &dm) {
        std::vector<RingLeg> legs;
        for (int j = 0; j < n; ++j) {
            const auto uj = static_cast<std::size_t>(j);
            const auto ujn = static_cast<std::size_t>((j + 1) % n);
            legs.push_back({{true, j}, {dm[uj]}});
            legs.push_back({{false, j}, {mm[uj]}});
            legs.push_back({{false, (j + 1) % n}, {dm[ujn].flipped()}});
        }
        return legs;
    };
    // Descending over dm1 first, then ascending over dm2.
    fab->addRing(reverseRing(ascending(dm1)));
    fab->addRing(forwardRing(ascending(dm2)));

    setDesignatedVmemPaths(*fab, dm1, dm2, mem);
    return fab;
}

} // namespace mcdla
