/**
 * @file
 * Topology graph implementation.
 */

#include "interconnect/topology.hh"

#include "interconnect/fabric.hh"
#include "sim/logging.hh"

namespace mcdla
{

const char *
nodeKindTag(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Device: return "D";
      case NodeKind::MemoryNode: return "M";
      case NodeKind::Switch: return "S";
      case NodeKind::Host: return "H";
    }
    return "?";
}

int
Topology::node(NodeKind kind, int index)
{
    const auto key = std::make_pair(static_cast<int>(kind), index);
    auto it = _byKindIndex.find(key);
    if (it != _byKindIndex.end())
        return it->second;
    const int id = static_cast<int>(_nodes.size());
    _nodes.push_back(TopoNode{kind, index});
    _outLinks.emplace_back();
    _byKindIndex.emplace(key, id);
    return id;
}

int
Topology::findNode(NodeKind kind, int index) const
{
    const auto key = std::make_pair(static_cast<int>(kind), index);
    auto it = _byKindIndex.find(key);
    return it == _byKindIndex.end() ? -1 : it->second;
}

Channel &
Topology::link(int src, int dst, const std::string &name,
               double bandwidth, Tick latency, bool routable)
{
    if (src < 0 || dst < 0
        || src >= static_cast<int>(_nodes.size())
        || dst >= static_cast<int>(_nodes.size()))
        panic("topology link endpoints %d -> %d outside %zu nodes", src,
              dst, _nodes.size());
    Channel &ch = _fabric.makeChannel(name, bandwidth, latency);
    const int id = static_cast<int>(_links.size());
    _links.push_back(TopoLink{src, dst, &ch, routable});
    _outLinks[static_cast<std::size_t>(src)].push_back(id);
    return ch;
}

DuplexLink
Topology::duplex(int a, int b, const std::string &out,
                 const std::string &back, double bandwidth, Tick latency,
                 bool routable)
{
    Channel &there = link(a, b, out, bandwidth, latency, routable);
    return DuplexLink{&there, &link(b, a, back, bandwidth, latency,
                                    routable)};
}

int
Topology::count(NodeKind kind) const
{
    int n = 0;
    for (const TopoNode &node : _nodes)
        if (node.kind == kind)
            ++n;
    return n;
}

const std::vector<int> &
Topology::outLinks(int node) const
{
    return _outLinks.at(static_cast<std::size_t>(node));
}

std::string
Topology::nodeName(int id) const
{
    const TopoNode &node = nodeInfo(id);
    return nodeKindTag(node.kind) + std::to_string(node.index);
}

} // namespace mcdla
