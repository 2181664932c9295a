/**
 * @file
 * Fabric query implementation (point-to-point route construction).
 */

#include "interconnect/fabric.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace mcdla
{

RingPath
forwardRing(const std::vector<RingLeg> &legs)
{
    RingPath ring;
    ring.stages.reserve(legs.size());
    ring.hops.reserve(legs.size());
    for (const RingLeg &leg : legs) {
        ring.stages.push_back(leg.from);
        Route &hop = ring.hops.emplace_back();
        for (const DuplexLink &link : leg.links)
            if (link.out)
                hop.hops.push_back(link.out);
    }
    return ring;
}

RingPath
reverseRing(const std::vector<RingLeg> &legs)
{
    RingPath ring;
    const std::size_t n = legs.size();
    ring.stages.reserve(n);
    ring.hops.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        // Stage s is forward stage (n - s) % n; its hop retraces the
        // forward leg that arrives there.
        ring.stages.push_back(legs[(n - s) % n].from);
        const auto &links = legs[n - 1 - s].links;
        Route &hop = ring.hops.emplace_back();
        for (auto it = links.rbegin(); it != links.rend(); ++it)
            if (it->back)
                hop.hops.push_back(it->back);
    }
    return ring;
}

void
VmemPath::addLane(std::initializer_list<DuplexLink> lane, Channel *storage)
{
    Route &write = writeRoutes.emplace_back();
    for (const DuplexLink &link : lane)
        write.hops.push_back(link.out);
    write.hops.push_back(storage);
    Route &read = readRoutes.emplace_back();
    read.hops.push_back(storage);
    for (auto it = std::rbegin(lane); it != std::rend(lane); ++it)
        read.hops.push_back(it->back);
}

RingPath
restrictRingToDevices(const RingPath &ring,
                      const std::vector<int> &devices)
{
    auto isMember = [&devices](const RingStage &stage) {
        return stage.isDevice
            && std::find(devices.begin(), devices.end(), stage.index)
            != devices.end();
    };

    int members = 0;
    for (const RingStage &stage : ring.stages)
        if (isMember(stage))
            ++members;
    if (members < 2 || ring.hops.size() != ring.stages.size())
        return RingPath{};

    // Kept stages: member devices plus every memory-node position. A
    // dropped device stage's outgoing hop is folded into the previous
    // kept stage's route, so the restricted ring walks the same
    // physical channels as the original.
    RingPath out;
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < ring.stages.size(); ++i)
        if (!ring.stages[i].isDevice || isMember(ring.stages[i]))
            kept.push_back(i);

    for (std::size_t k = 0; k < kept.size(); ++k) {
        out.stages.push_back(ring.stages[kept[k]]);
        Route merged;
        const std::size_t next =
            kept[(k + 1) % kept.size()];
        for (std::size_t pos = kept[k]; pos != next;
             pos = (pos + 1) % ring.stages.size()) {
            const Route &hop = ring.hops[pos];
            merged.hops.insert(merged.hops.end(), hop.hops.begin(),
                               hop.hops.end());
        }
        out.hops.push_back(std::move(merged));
    }
    return out;
}

const Router &
Fabric::router() const
{
    if (_topology.empty())
        fatal("fabric '%s' has no topology graph; routing tables "
              "require a topology-aware builder", _name.c_str());
    if (!_router)
        _router = std::make_unique<Router>(_topology);
    return *_router;
}

Route
Fabric::deviceRoute(int src, int dst) const
{
    // The Router's shortest-path tables are authoritative whenever
    // they beat the ring walk — crossbar shortcuts on switched
    // fabrics, grid paths on meshes — or when no ring connects the
    // pair. Equal-cost ties keep the ring walk's choice (first ring
    // in fabric order): among same-length routes the pick is
    // arbitrary, and holding the legacy one keeps every pre-Topology
    // simulation bit-reproducible (tests/test_topology.cc pins both
    // properties).
    const auto key = std::make_pair(src, dst);
    auto cached = _routeCache.find(key);
    if (cached != _routeCache.end())
        return cached->second;

    Route walk = ringWalkRoute(src, dst);
    Route best;
    if (_topology.empty()) {
        best = std::move(walk);
    } else {
        Route routed = router().route(src, dst);
        if (routed.valid()
            && (!walk.valid()
                || routed.hops.size() < walk.hops.size()))
            best = std::move(routed);
        else
            best = std::move(walk);
    }
    return _routeCache.emplace(key, std::move(best)).first->second;
}

int
Fabric::deviceHopCount(int src, int dst) const
{
    // The BFS distance is never beaten by a ring walk (rings are made
    // of routable channels), so the router's table is exact here.
    if (!_topology.empty())
        return router().hopCount(src, dst);
    const Route walk = ringWalkRoute(src, dst);
    if (src == dst)
        return 0;
    return walk.valid() ? static_cast<int>(walk.hops.size()) : -1;
}

Route
Fabric::ringWalkRoute(int src, int dst) const
{
    Route best;
    std::size_t best_len = 0;
    if (src == dst)
        return best;
    for (const RingPath &ring : _rings) {
        const int start = ring.stageOfDevice(src);
        if (start < 0)
            continue;
        Route walk;
        bool found = false;
        int pos = start;
        for (int step = 0; step < ring.stageCount(); ++step) {
            const Route &hop =
                ring.hops[static_cast<std::size_t>(pos)];
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

} // namespace mcdla
