/**
 * @file
 * Router implementation: per-source BFS with deterministic
 * tie-breaking.
 */

#include "interconnect/router.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"

namespace mcdla
{

Router::Router(const Topology &topo) : _topo(topo)
{
    _numDevices = topo.count(NodeKind::Device);
    _deviceNodes.assign(static_cast<std::size_t>(_numDevices), -1);
    for (int d = 0; d < _numDevices; ++d)
        _deviceNodes[static_cast<std::size_t>(d)] =
            topo.findNode(NodeKind::Device, d);

    _tables.reserve(static_cast<std::size_t>(_numDevices));
    for (int d = 0; d < _numDevices; ++d)
        _tables.push_back(
            bfs(_deviceNodes[static_cast<std::size_t>(d)]));
}

std::vector<Router::NodeEntry>
Router::bfs(int src_node) const
{
    std::vector<NodeEntry> table(_topo.nodeCount());
    if (src_node < 0)
        return table;
    table[static_cast<std::size_t>(src_node)].dist = 0;

    std::deque<int> frontier{src_node};
    while (!frontier.empty()) {
        const int u = frontier.front();
        frontier.pop_front();
        const int du = table[static_cast<std::size_t>(u)].dist;
        for (int link_id : _topo.outLinks(u)) {
            const TopoLink &link =
                _topo.links()[static_cast<std::size_t>(link_id)];
            if (!link.routable || link.dst == u)
                continue;
            NodeEntry &entry =
                table[static_cast<std::size_t>(link.dst)];
            if (entry.dist < 0) {
                entry.dist = du + 1;
                entry.parent = link_id;
                frontier.push_back(link.dst);
            }
        }
    }
    return table;
}

Route
Router::route(int src, int dst) const
{
    Route out;
    if (src == dst || src < 0 || dst < 0 || src >= _numDevices
        || dst >= _numDevices)
        return out;
    const auto &table = _tables[static_cast<std::size_t>(src)];
    int node = _deviceNodes[static_cast<std::size_t>(dst)];
    if (node < 0 || table[static_cast<std::size_t>(node)].dist < 0)
        return out;

    // Backtrack along the BFS-first parents, then reverse.
    while (table[static_cast<std::size_t>(node)].dist > 0) {
        const int link_id = table[static_cast<std::size_t>(node)].parent;
        const TopoLink &link =
            _topo.links()[static_cast<std::size_t>(link_id)];
        out.hops.push_back(link.channel);
        node = link.src;
    }
    std::reverse(out.hops.begin(), out.hops.end());
    return out;
}

int
Router::hopCount(int src, int dst) const
{
    if (src == dst)
        return 0;
    if (src < 0 || dst < 0 || src >= _numDevices || dst >= _numDevices)
        return -1;
    const int dst_node = _deviceNodes[static_cast<std::size_t>(dst)];
    if (dst_node < 0)
        return -1;
    return _tables[static_cast<std::size_t>(src)]
        [static_cast<std::size_t>(dst_node)].dist;
}

bool
Router::fullyConnected() const
{
    for (int s = 0; s < _numDevices; ++s)
        for (int d = 0; d < _numDevices; ++d)
            if (s != d && hopCount(s, d) < 0)
                return false;
    return true;
}

} // namespace mcdla
