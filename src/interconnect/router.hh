/**
 * @file
 * Router: precomputed device-to-device routing over a Topology.
 *
 * A breadth-first search per source device over the routable links of
 * the graph yields shortest paths in physical channel traversals, with
 * deterministic tie-breaking by link insertion order: each node keeps
 * the link it was first reached over. Among equal-length routes that
 * pick need not be the ring walk's (on DC-DLA at 8 devices, 1 -> 5
 * goes backward over r0.*.bwd), so Fabric::deviceRoute keeps the walk
 * on ties and takes the Router's route only when it is shorter.
 *
 * Routes are channel sequences traversed store-and-forward; memory
 * nodes and switches along the way forward without participating.
 */

#ifndef MCDLA_INTERCONNECT_ROUTER_HH
#define MCDLA_INTERCONNECT_ROUTER_HH

#include <vector>

#include "interconnect/flow.hh"
#include "interconnect/topology.hh"

namespace mcdla
{

/** Shortest-path routing tables over one topology. */
class Router
{
  public:
    /** Precompute tables; @p topo must outlive the router. */
    explicit Router(const Topology &topo);

    /**
     * Canonical shortest route from device @p src to device @p dst
     * (the BFS-first path). Invalid (empty) when src == dst, either
     * device is absent, or no routable path exists.
     */
    Route route(int src, int dst) const;

    /**
     * Shortest-path length in physical channel traversals from device
     * @p src to device @p dst; 0 when src == dst, -1 when unreachable.
     */
    int hopCount(int src, int dst) const;

    /** Devices with a routable path to/from every other device. */
    bool fullyConnected() const;

    int deviceCount() const { return _numDevices; }

  private:
    struct NodeEntry
    {
        int dist = -1;
        /** The link id this node was first reached over. */
        int parent = -1;
    };

    /** BFS state of one source device, indexed by node id. */
    std::vector<NodeEntry> bfs(int src_node) const;

    const Topology &_topo;
    int _numDevices = 0;
    /** _tables[src device][node id]. */
    std::vector<std::vector<NodeEntry>> _tables;
    /** Node id of each device index; -1 when absent. */
    std::vector<int> _deviceNodes;
};

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_ROUTER_HH
