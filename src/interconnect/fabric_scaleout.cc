/**
 * @file
 * Switched (scale-out) MC-DLA fabric builder — Section VI / Figure 15.
 *
 * One switch plane per link index: plane r connects link r of every
 * device-node and memory-node through a non-blocking crossbar with a
 * store-and-forward latency. The collective rings and vmem neighbor
 * structure of the Fig 7(c) design are preserved logically — the switch
 * merely re-routes each segment — so the design point scales to any
 * node count the switch radix can seat.
 *
 * Expressed as a Topology generator: each plane is a Switch node, so
 * the Router sees the crossbar for what it is and point-to-point
 * routes cross any plane in two channel hops (up + down) instead of
 * walking the logical ring — the scale-out win the hierarchical
 * collectives exploit.
 */

#include <string>

#include "interconnect/fabrics.hh"
#include "sim/logging.hh"

namespace mcdla
{

DuplexLink
seatOnSwitch(Topology &topo, const FabricConfig &cfg, int node, int sw,
             const std::string &name)
{
    Channel &up = topo.link(node, sw, name + ".up", cfg.linkBandwidth,
                            cfg.linkLatency);
    return DuplexLink{&up, &topo.link(sw, node, name + ".down",
                                      cfg.linkBandwidth,
                                      cfg.linkLatency + cfg.switchLatency)};
}

std::unique_ptr<Fabric>
buildMcdlaSwitchFabric(EventQueue &eq, const FabricConfig &cfg)
{
    const int n = cfg.numDevices;
    if (n < 1)
        fatal("switched MC-DLA fabric requires at least one device");
    if (2 * n > cfg.switchRadix)
        fatal("switch radix %d cannot seat %d device-nodes plus %d "
              "memory-nodes per plane; use a larger switch or fewer "
              "nodes",
              cfg.switchRadix, n, n);

    auto fab = std::make_unique<Fabric>(eq, "mcdla_switch");
    Topology &topo = fab->topology();
    for (int d = 0; d < n; ++d)
        topo.device(d);

    // Memory-node DIMM buses.
    std::vector<Channel *> mem = makeMemoryNodeBuses(*fab, cfg, n);

    // One plane per physical link (the DGX-2 pattern: N=6 links, six
    // switch planes), and on each plane one link per node.
    const auto P = static_cast<std::size_t>(2 * cfg.numRings);
    std::vector<std::vector<DuplexLink>> dLink(P), mLink(P);
    for (std::size_t p = 0; p < P; ++p) {
        const int sw = topo.switchNode(static_cast<int>(p));
        const std::string plane = "plane" + std::to_string(p);
        for (int i = 0; i < n; ++i) {
            dLink[p].push_back(
                seatOnSwitch(topo, cfg, topo.device(i), sw,
                             plane + ".d" + std::to_string(i)));
            mLink[p].push_back(
                seatOnSwitch(topo, cfg, topo.memoryNode(i), sw,
                             plane + ".m" + std::to_string(i)));
        }
    }

    // Logical rings: one unidirectional ring per plane, stages
    // alternating D and M, each hop up to the plane and down again:
    // forward on even planes and reverse on odd planes.
    if (n >= 2) {
        for (std::size_t p = 0; p < P; ++p) {
            std::vector<RingLeg> legs;
            for (int i = 0; i < n; ++i) {
                const auto ui = static_cast<std::size_t>(i);
                const auto un = static_cast<std::size_t>((i + 1) % n);
                legs.push_back(
                    {{true, i}, {dLink[p][ui], mLink[p][ui].flipped()}});
                legs.push_back(
                    {{false, i}, {mLink[p][ui], dLink[p][un].flipped()}});
            }
            fab->addRing(p % 2 == 0 ? forwardRing(legs)
                                    : reverseRing(legs));
        }
    }

    // vmem paths: logical right (M_d) and left (M_{d-1}) neighbors as
    // in the direct ring design; the right target rides the first half
    // of the planes, the left target the second half, so BW_AWARE
    // engages all N links and LOCAL uses N/2 (Fig 10 semantics).
    const std::size_t half = P / 2;
    for (int d = 0; d < n; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        const int left = (d - 1 + n) % n;
        const auto ul = static_cast<std::size_t>(left);
        VmemPath right{d, {}, {}};
        VmemPath left_path{left, {}, {}};
        for (std::size_t p = 0; p < half; ++p)
            right.addLane({dLink[p][ud], mLink[p][ud].flipped()},
                          mem[ud]);
        for (std::size_t p = half; p < P; ++p)
            left_path.addLane({dLink[p][ud], mLink[p][ul].flipped()},
                              mem[ul]);
        setNeighborVmemPaths(*fab, d, std::move(right),
                             std::move(left_path));
    }
    return fab;
}

} // namespace mcdla
