/**
 * @file
 * Topology: the graph underneath a Fabric.
 *
 * A Topology records the interconnect of one system as typed nodes
 * (device, memory-node, switch, host socket) and directed links, where
 * every link owns the Channel that simulates it. Fabric builders
 * construct their channels *through* the topology, so the graph and the
 * simulated channel set can never drift apart, and generic graph
 * machinery — the Router's shortest-path tables, collective
 * tree/sub-ring extraction, cluster placement hop costs — works on any
 * wiring, not just the hand-enumerated rings of the paper's figures.
 *
 * Links default to "routable" (eligible for device-to-device routing).
 * Memory-virtualization-only resources — PCIe lanes, host-socket DRAM
 * interfaces, DIMM buses — are recorded non-routable so that a
 * point-to-point route can never silently detour through the host, which
 * the fixed-function designs of the paper cannot do.
 *
 * Generators for abstract wirings (2-D mesh, torus, two-level
 * fat-tree) live in topology_gen.cc; the paper's fabrics are generated
 * by the builders in fabrics.hh on top of the same API.
 */

#ifndef MCDLA_INTERCONNECT_TOPOLOGY_HH
#define MCDLA_INTERCONNECT_TOPOLOGY_HH

#include <map>
#include <string>
#include <vector>

#include "interconnect/channel.hh"
#include "interconnect/fabric_config.hh"

namespace mcdla
{

class Fabric;

/** Node type in the interconnect graph. */
enum class NodeKind
{
    Device,     ///< DLA device-node (compute + HBM).
    MemoryNode, ///< Disaggregated memory-node (protocol engine + DIMMs).
    Switch,     ///< Crossbar switch (scale-out planes, fat-tree levels).
    Host,       ///< Host-socket attachment point (PCIe designs).
};

/** Short printable tag ("D", "M", "S", "H"). */
const char *nodeKindTag(NodeKind kind);

/** One vertex of the interconnect graph. */
struct TopoNode
{
    NodeKind kind = NodeKind::Device;
    int index = 0; ///< Index within its kind (device 3, switch 1, ...).
};

/** One directed edge; owns-by-reference the channel simulating it. */
struct TopoLink
{
    int src = -1;
    int dst = -1;
    Channel *channel = nullptr;
    /** Eligible for device-to-device routing (Router BFS). */
    bool routable = true;
};

/**
 * One bidirectional physical link as its two channels. Every wiring in
 * the paper is built from such links, so a builder declares each link
 * once and the Fabric helpers derive the reverse ring hops and the
 * vmem read routes from the back channels.
 */
struct DuplexLink
{
    Channel *out = nullptr;  ///< The direction the builder travels.
    Channel *back = nullptr; ///< The opposite channel of the link.

    /** The same link travelled the other way. */
    DuplexLink flipped() const { return DuplexLink{back, out}; }
};

/**
 * The interconnect graph of one Fabric.
 *
 * Nodes and links are created in builder order; that order is part of
 * the contract — the Router's deterministic tie-breaking follows link
 * insertion order, so reordering a builder's links can change which
 * of two equal-length routes a transfer takes.
 */
class Topology
{
  public:
    explicit Topology(Fabric &fabric) : _fabric(fabric) {}

    /** Node id of (kind, index), creating the node if absent. */
    int node(NodeKind kind, int index);

    /** Node id of (kind, index), or -1 when absent. */
    int findNode(NodeKind kind, int index) const;

    /** Convenience create-if-absent accessors. */
    int device(int index) { return node(NodeKind::Device, index); }
    int memoryNode(int index)
    {
        return node(NodeKind::MemoryNode, index);
    }
    int switchNode(int index) { return node(NodeKind::Switch, index); }
    int hostNode(int index) { return node(NodeKind::Host, index); }

    /**
     * Create a channel through the owning fabric and record it as a
     * directed link @p src -> @p dst.
     *
     * @param routable False for memory-virtualization-only resources
     *        (PCIe, sockets, DIMM buses): excluded from Router paths.
     */
    Channel &link(int src, int dst, const std::string &name,
                  double bandwidth, Tick latency, bool routable = true);

    /**
     * Create a physical link between @p a and @p b: the channel
     * a -> b named @p out, then b -> a named @p back, each at
     * @p bandwidth and @p latency.
     */
    DuplexLink duplex(int a, int b, const std::string &out,
                      const std::string &back, double bandwidth,
                      Tick latency, bool routable = true);

    /// @name Queries
    /// @{
    bool empty() const { return _nodes.empty(); }
    std::size_t nodeCount() const { return _nodes.size(); }
    const TopoNode &nodeInfo(int id) const
    {
        return _nodes.at(static_cast<std::size_t>(id));
    }

    /** Number of nodes of @p kind. */
    int count(NodeKind kind) const;

    const std::vector<TopoLink> &links() const { return _links; }

    /** Link indices leaving @p node, in insertion order. */
    const std::vector<int> &outLinks(int node) const;

    /** Printable node name ("D3", "S0", ...). */
    std::string nodeName(int id) const;
    /// @}

  private:
    Fabric &_fabric;
    std::vector<TopoNode> _nodes;
    std::vector<TopoLink> _links;
    std::map<std::pair<int, int>, int> _byKindIndex;
    std::vector<std::vector<int>> _outLinks;
};

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_TOPOLOGY_HH
