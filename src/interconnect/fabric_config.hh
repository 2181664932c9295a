/**
 * @file
 * Shared configuration for fabric builders.
 */

#ifndef MCDLA_INTERCONNECT_FABRIC_CONFIG_HH
#define MCDLA_INTERCONNECT_FABRIC_CONFIG_HH

#include "sim/text.hh"
#include "sim/units.hh"

namespace mcdla
{

/**
 * Interconnect wiring selector. Design keeps the system design's
 * legacy fabric (the paper's figures); the rest are generic generators
 * over the Topology graph layer (see interconnect/topology.hh),
 * opening the interconnect itself as a sweep axis: the same
 * memory-centric node set wired as a ring, a fully-connected switch, a
 * 2-D mesh/torus, or a two-level fat-tree.
 */
enum class TopologyKind
{
    Design,     ///< The system design's own wiring (default).
    Ring,       ///< Fig 7(c) alternating device/memory ring.
    FullSwitch, ///< Crossbar planes seating every node (Fig 15).
    Mesh2d,     ///< 2-D device mesh, memory-node per device.
    Torus2d,    ///< 2-D device torus (mesh + wraparound links).
    FatTree,    ///< Two-level fat-tree of switches over all nodes.
};

inline constexpr TokenRow<TopologyKind> kTopologyKindRows[] = {
    {TopologyKind::Design, "design", "", "design default"},
    {TopologyKind::Ring, "ring", "", "ring"},
    {TopologyKind::FullSwitch, "full-switch", "", "fully-connected switch"},
    {TopologyKind::Mesh2d, "mesh2d", "", "2d-mesh"},
    {TopologyKind::Torus2d, "torus2d", "", "2d-torus"},
    {TopologyKind::FatTree, "fat-tree", "", "fat-tree"},
};

/** --topology vocabulary; name() is the --list-topologies label. */
inline constexpr TokenTable<TopologyKind> kTopologyKinds{
    "topology", kTopologyKindRows};

/** Parameters shared by every fabric builder. */
struct FabricConfig
{
    /** Device-node count (paper: 8). Must be even and >= 2 for rings. */
    int numDevices = 8;

    /** Bidirectional device-side rings (N/2 with N=6 links). */
    int numRings = 3;

    /// @name High-bandwidth link (NVLINK-class)
    /// @{
    double linkBandwidth = 25.0 * kGB; ///< Per direction (Table II: B).
    Tick linkLatency = 500 * ticksPerNs;
    /// @}

    /// @name Host interface (PCIe)
    /// @{
    double pcieRawBandwidth = 16.0 * kGB; ///< gen3 x16 per direction.
    double pcieEfficiency = 0.8125;       ///< Protocol overhead -> 13 GB/s.
    Tick pcieLatency = 1300 * ticksPerNs;
    /// @}

    /// @name Host sockets
    /// @{
    int numSockets = 2;
    /**
     * Socket DRAM bandwidth cap (bytes/s). 0 means unconstrained — the
     * paper's conservative assumption — in which case traffic is tracked
     * but never throttled.
     */
    double socketBandwidth = 0.0;
    Tick socketLatency = 100 * ticksPerNs;
    /// @}

    /// @name Memory-node (Table II)
    /// @{
    double memNodeBandwidth = 256.0 * kGB;
    Tick memNodeLatency = 100 * ticksPerNs;
    /// @}

    /** Averaging window for peak host-bandwidth tracking (Fig 12). */
    Tick peakWindow = 100 * ticksPerUs;

    /// @name Device-side switch (Fig 15 scale-out plane)
    /// @{
    /**
     * Ports per switch plane (NVSwitch: 18). One plane serves link r of
     * every node, so a plane must have at least numDevices + numMemNodes
     * ports.
     */
    int switchRadix = 18;
    /** Store-and-forward latency through a switch plane. */
    Tick switchLatency = 300 * ticksPerNs;
    /// @}

    /**
     * Interconnect wiring override (--topology). Design uses the
     * system design's legacy fabric; the generic kinds rewire the
     * memory-centric node set through the Topology generators.
     */
    TopologyKind topology = TopologyKind::Design;

    /** Effective PCIe data bandwidth per direction. */
    double pcieBandwidth() const { return pcieRawBandwidth
                                       * pcieEfficiency; }

    /**
     * Check configuration sanity — positive bandwidths and node/link
     * counts, non-negative latencies, a (0, 1] PCIe efficiency —
     * mirroring MemoryNodeConfig::validate(). Called from System
     * construction; fatal() on violation.
     */
    void validate() const;
};

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_FABRIC_CONFIG_HH
