/**
 * @file
 * Fabric builders for every system design point in the evaluation.
 *
 * Every design is wired from bidirectional physical links. A builder
 * declares each link once, as a DuplexLink (Topology::duplex, or two
 * Topology::link calls where the directions differ in latency or
 * creation order), in a fixed creation order: the channel graph and
 * the Router's tie-breaks, which follow link insertion order, depend
 * on it. From the links the shared helpers derive the rest:
 *  - a ring is a list of RingLegs (the stage a hop leaves and the links
 *    it crosses); Fabric::addRingPair adds forwardRing() and its
 *    reverseRing(), which runs the stages backward on the back
 *    channels;
 *  - VmemPath::addLane makes a lane's write route (out channels, then
 *    the storage channel) and its read route (the storage channel,
 *    then the back channels).
 * Only the generic generators' addRoutedRings routes both directions on
 * the Router, because the reverse of a routed hop need not be the
 * Router's pick. FabricCensus.* (tests/test_topology.cc) pins every
 * builder's channels, rings, vmem paths and device routes.
 *
 * Hop-count properties asserted by the test suite (paper Section III-B):
 *  - DC-DLA (Fig 5): 3 bidirectional device rings, 8 physical hops each.
 *  - MC-DLA star-A (Fig 7a): device rings of 8/8 hops plus a 24-hop ring
 *    visiting every memory-node twice.
 *  - MC-DLA star (Fig 7b, the evaluated MC-DLA(S)): rings of 8/12/20 hops.
 *  - MC-DLA ring (Fig 7c): 3 rings of 16 hops (devices and memory-nodes
 *    alternate).
 */

#ifndef MCDLA_INTERCONNECT_FABRICS_HH
#define MCDLA_INTERCONNECT_FABRICS_HH

#include <memory>

#include "interconnect/fabric.hh"
#include "interconnect/fabric_config.hh"

namespace mcdla
{

/**
 * DC-DLA: DGX-style cube-mesh flattened into numRings bidirectional
 * device rings; memory virtualization over per-device PCIe to the host
 * sockets.
 *
 * @param with_host_vmem When false (the DC-DLA(O) oracle), no vmem paths
 *                       are published.
 */
std::unique_ptr<Fabric> buildDcdlaFabric(EventQueue &eq,
                                         const FabricConfig &cfg,
                                         bool with_host_vmem = true);

/**
 * HC-DLA: half of each device's links (3) connect to its host socket for
 * memory virtualization; the device-side ring budget drops to 12 links
 * (alternating double/single hops), so one full-rate ring plus one
 * partially link-sharing ring per direction remain.
 *
 * The socket bandwidth defaults to the paper's overprovisioned
 * (numDevices/numSockets) * 3 * linkBandwidth unless cfg.socketBandwidth
 * is non-zero.
 */
std::unique_ptr<Fabric> buildHcdlaFabric(EventQueue &eq,
                                         const FabricConfig &cfg);

/**
 * MC-DLA ring (Fig 7c / Fig 8): numRings bidirectional 2*numDevices-node
 * rings alternating D and M. Each device reaches its left and right
 * memory-nodes with numRings links each; vmem paths carry both targets so
 * the page-allocation policy (LOCAL vs BW_AWARE) picks the split.
 */
std::unique_ptr<Fabric> buildMcdlaRingFabric(EventQueue &eq,
                                             const FabricConfig &cfg);

/** MC-DLA star (Fig 7b): the evaluated MC-DLA(S) design point. */
std::unique_ptr<Fabric> buildMcdlaStarFabric(EventQueue &eq,
                                             const FabricConfig &cfg);

/** MC-DLA star-A (Fig 7a): the naive derivative design (ablations). */
std::unique_ptr<Fabric> buildMcdlaStarAFabric(EventQueue &eq,
                                              const FabricConfig &cfg);

/**
 * Switched MC-DLA (Fig 15 / Section VI): every device- and memory-node
 * link lands on an NVSwitch-class switch plane (one plane per link
 * index, the DGX-2 pattern), which lets the node count scale beyond
 * the fixed-ring designs. The logical rings and vmem neighbor
 * assignments match the Fig 7(c) design; each ring hop traverses a
 * node-to-switch and a switch-to-node channel.
 *
 * Fatal if a plane's radix cannot seat every node.
 */
std::unique_ptr<Fabric> buildMcdlaSwitchFabric(EventQueue &eq,
                                               const FabricConfig &cfg);

/**
 * Create @p count memory-node DIMM-bus channels ("m<i>.dimms"):
 * non-routable self-links on the MemoryNode vertices, registered with
 * the fabric for the Figure 12-style accounting. Shared by every
 * memory-centric builder so the bus naming/routability convention
 * cannot diverge between the legacy fabrics and the generic
 * topologies.
 */
std::vector<Channel *> makeMemoryNodeBuses(Fabric &fab,
                                           const FabricConfig &cfg,
                                           int count);

/**
 * Seat @p node on switch @p sw (fabric_scaleout.cc): the link's out
 * channel "<name>.up" runs node -> switch, its back channel
 * "<name>.down" switch -> node and carries the switch's
 * store-and-forward latency.
 */
DuplexLink seatOnSwitch(Topology &topo, const FabricConfig &cfg,
                        int node, int sw, const std::string &name);

/**
 * Publish @p right (to M_device) and @p left (to M_{device-1}) as the
 * vmem paths of @p device, the neighbor pattern of the Fig 7(c) and
 * Fig 15 designs. On a single-device system both target the one
 * memory-node, which then gets every lane, right lanes first, as one
 * path.
 */
void setNeighborVmemPaths(Fabric &fab, int device, VmemPath right,
                          VmemPath left);

/// @name Generic topology generators (topology_gen.cc)
/// @{

/**
 * 2-D device mesh (optionally a torus): devices at grid points of the
 * most-square rows x cols factorization of numDevices, one channel
 * pair per grid edge, and a dedicated memory-node per device on the
 * two links the grid does not consume. Collective rings are the two
 * serpentine traversals of the grid; ring hops between non-adjacent
 * devices (the closing edge of a mesh) store-and-forward through the
 * grid on Router shortest paths.
 *
 * @param wrap Adds wraparound links per row/column (torus) when the
 *             dimension is >= 3.
 */
std::unique_ptr<Fabric> buildMesh2dFabric(EventQueue &eq,
                                          const FabricConfig &cfg,
                                          bool wrap);

/**
 * Two-level fat-tree over all device- and memory-nodes: leaf switches
 * seat switchRadix/2 nodes each (devices and their memory-nodes in
 * adjacent slots), and every leaf has one uplink pair to each of the
 * switchRadix/2 spine switches. Fatal when the radix cannot seat the
 * node count (leaves > radix).
 */
std::unique_ptr<Fabric> buildFatTreeFabric(EventQueue &eq,
                                           const FabricConfig &cfg);

/**
 * Build the fabric of @p kind: the generic generators above, or the
 * Fig 7(c)/Fig 15 memory-centric designs for Ring/FullSwitch. Fatal
 * for TopologyKind::Design — the caller resolves that to the system
 * design's own builder.
 */
std::unique_ptr<Fabric> buildTopologyFabric(EventQueue &eq,
                                            const FabricConfig &cfg,
                                            TopologyKind kind);

/// @}

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_FABRICS_HH
