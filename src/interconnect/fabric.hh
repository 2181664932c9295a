/**
 * @file
 * Fabric: the device-side interconnect of one system design point.
 *
 * A Fabric owns all channels (link directions, memory-node DIMM buses,
 * PCIe lanes, host-socket DRAM interfaces) and publishes two views the
 * system layer consumes:
 *
 *  - collective rings: logical unidirectional rings over the device-nodes
 *    (a hop may traverse several channels when memory-nodes sit between
 *    devices, as in MC-DLA),
 *  - per-device vmem paths: parallel routes to each backing-store target
 *    (a neighbor memory-node, or the host socket).
 *
 * Ring hops and vmem routes may share physical channels; contention is
 * resolved by channel FIFO queueing during simulation.
 */

#ifndef MCDLA_INTERCONNECT_FABRIC_HH
#define MCDLA_INTERCONNECT_FABRIC_HH

#include <array>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interconnect/channel.hh"
#include "interconnect/flow.hh"
#include "interconnect/router.hh"
#include "interconnect/topology.hh"

namespace mcdla
{

/** One position around a logical ring. */
struct RingStage
{
    bool isDevice = true; ///< Device-node or memory-node stage.
    int index = 0;        ///< Node index within its kind.
};

/**
 * One logical unidirectional ring used by collectives.
 *
 * Every stage — device-node or memory-node — is a full ring-algorithm
 * participant (the memory-node protocol engine stores-and-forwards ring
 * blocks), which is what produces the paper's Figure 9 cost model: a
 * 16-stage MC-DLA ring pays the (n-1)/n bandwidth factor of n=16, ~7%
 * above DC-DLA's n=8. A node may appear as more than one stage (the
 * Fig 7a black ring visits each memory-node twice).
 */
struct RingPath
{
    /** Stages in ring order. */
    std::vector<RingStage> stages;
    /** hops[i] routes stages[i] -> stages[(i+1) % stageCount()]. */
    std::vector<Route> hops;

    int stageCount() const { return static_cast<int>(stages.size()); }

    /** Total physical channel traversals around the ring. */
    int
    physicalHopCount() const
    {
        int n = 0;
        for (const Route &hop : hops)
            n += static_cast<int>(hop.hops.size());
        return n;
    }

    /** Device indices in ring order (duplicates removed in order). */
    std::vector<int>
    deviceMembers() const
    {
        std::vector<int> out;
        for (const RingStage &s : stages)
            if (s.isDevice)
                out.push_back(s.index);
        return out;
    }

    /** First stage position occupied by @p device; -1 if absent. */
    int
    stageOfDevice(int device) const
    {
        for (std::size_t i = 0; i < stages.size(); ++i)
            if (stages[i].isDevice && stages[i].index == device)
                return static_cast<int>(i);
        return -1;
    }
};

/**
 * One hop of a ring as a builder declares it: the stage it leaves and
 * the physical links it crosses in travel order, one or (through a
 * switch plane) two; an unused slot stays null.
 */
struct RingLeg
{
    RingStage from;
    std::array<DuplexLink, 2> links;
};

/** The ring over @p legs: each leg's stage, hopping on its out channels. */
RingPath forwardRing(const std::vector<RingLeg> &legs);

/**
 * The backward twin of forwardRing(@p legs) on the opposite channel of
 * every link: it starts at stage 0, runs the stages in reverse order,
 * and each hop crosses the back channels of the leg it retraces, last
 * link first.
 */
RingPath reverseRing(const std::vector<RingLeg> &legs);

/** Backing-store attachment of one device. */
struct VmemPath
{
    /** Memory-node index, or -1 when the target is host DRAM. */
    int targetIndex = -1;
    /** Parallel device -> storage routes (writes/offload). */
    std::vector<Route> writeRoutes;
    /** Parallel storage -> device routes (reads/prefetch). */
    std::vector<Route> readRoutes;

    /**
     * Add one parallel lane over @p lane (links listed from the device
     * out) to the storage channel @p storage: writes cross the out
     * channels and then @p storage, reads @p storage and then the back
     * channels, last link first.
     */
    void addLane(std::initializer_list<DuplexLink> lane, Channel *storage);
};

/**
 * Restrict a logical ring to a subset of device-nodes (cluster
 * multi-tenancy): device stages outside @p devices are demoted to
 * store-and-forward hops — their adjacent routes concatenate — while
 * memory-node stages stay full ring-algorithm participants, exactly as
 * they do for whole-machine collectives. The restricted ring still
 * traverses every physical channel of the original loop, so a job's
 * collectives contend with co-located jobs' traffic on the shared
 * links. Returns a ring with no stages when fewer than two of
 * @p devices appear in @p ring.
 */
RingPath restrictRingToDevices(const RingPath &ring,
                               const std::vector<int> &devices);

/** The interconnect of one simulated system. */
class Fabric
{
  public:
    Fabric(EventQueue &eq, std::string name)
        : _eq(eq), _name(std::move(name)), _topology(*this)
    {}

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _eq; }

    /** The interconnect graph (populated by topology-aware builders). */
    Topology &topology() { return _topology; }
    const Topology &topology() const { return _topology; }

    /**
     * The routing tables over the topology graph, built on first use
     * (after construction completes). Fatal when the fabric was
     * hand-assembled without a graph.
     */
    const Router &router() const;

    /** Create and own a channel. */
    Channel &
    makeChannel(const std::string &name, double bandwidth, Tick latency)
    {
        _channels.push_back(std::make_unique<Channel>(
            _eq, _name + "." + name, bandwidth, latency));
        return *_channels.back();
    }

    /// @name Construction API (used by fabric builders)
    /// @{
    void addRing(RingPath ring) { _rings.push_back(std::move(ring)); }

    /** Add forwardRing(@p legs), then its reverseRing(). */
    void
    addRingPair(const std::vector<RingLeg> &legs)
    {
        addRing(forwardRing(legs));
        addRing(reverseRing(legs));
    }

    void
    setVmemPaths(int device, std::vector<VmemPath> paths)
    {
        _vmemPaths[device] = std::move(paths);
    }

    /** Register a host-socket DRAM channel (Figure 12 accounting). */
    void
    registerSocketChannel(Channel *ch)
    {
        _socketChannels.push_back(ch);
    }

    /** Register a memory-node DIMM-bus channel. */
    void
    registerMemNodeChannel(int mem_index, Channel *ch)
    {
        _memNodeChannels[mem_index] = ch;
    }
    /// @}

    /// @name Simulation-time queries
    /// @{
    const std::vector<RingPath> &rings() const { return _rings; }

    /**
     * A point-to-point channel route from device @p src to device
     * @p dst in the fewest physical channel traversals (memory-nodes
     * and switches along the way store-and-forward): the Router's
     * precomputed shortest path over the topology graph wherever that
     * is strictly shorter than — or the only alternative to — the
     * legacy ring walk; equal-cost ties keep the ring walk's
     * deterministic choice so pre-Topology simulations stay
     * bit-reproducible. Used for pipeline-parallel boundary
     * transfers, which thereby contend with paging DMA and collective
     * chunks on the shared channels. Returns an invalid (empty) route
     * when no path connects the two devices.
     */
    Route deviceRoute(int src, int dst) const;

    /**
     * Shortest device-to-device distance in physical channel
     * traversals (the cluster's placement cost); -1 when unreachable.
     */
    int deviceHopCount(int src, int dst) const;

    /** Paths to this device's backing store; empty if it has none. */
    const std::vector<VmemPath> &
    vmemPaths(int device) const
    {
        static const std::vector<VmemPath> none;
        auto it = _vmemPaths.find(device);
        return it == _vmemPaths.end() ? none : it->second;
    }

    const std::vector<Channel *> &
    socketChannels() const
    {
        return _socketChannels;
    }

    const std::map<int, Channel *> &
    memNodeChannels() const
    {
        return _memNodeChannels;
    }

    /** All owned channels (stats enumeration). */
    std::vector<Channel *>
    channels() const
    {
        std::vector<Channel *> out;
        out.reserve(_channels.size());
        for (const auto &ch : _channels)
            out.push_back(ch.get());
        return out;
    }

    /** Total bytes that crossed host-socket DRAM channels. */
    double
    hostBytes() const
    {
        double total = 0.0;
        for (const Channel *ch : _socketChannels)
            total += ch->bytesTransferred();
        return total;
    }

    /** Peak windowed host-socket bandwidth across sockets since
        construction (bytes/s). */
    double
    hostPeakBandwidth() const
    {
        double peak = 0.0;
        for (const Channel *ch : _socketChannels)
            peak = std::max(peak, ch->peakBandwidth());
        return peak;
    }
    /// @}

  private:
    /** Shortest walk along the rings: deviceRoute()'s tie-break and
        the only routing of fabrics built without a graph. */
    Route ringWalkRoute(int src, int dst) const;

    EventQueue &_eq;
    std::string _name;
    Topology _topology;
    /** Routing tables, built lazily once the graph is complete. */
    mutable std::unique_ptr<Router> _router;
    /** Resolved deviceRoute() results (the graph is immutable after
        construction; collectives re-resolve pairs every launch). */
    mutable std::map<std::pair<int, int>, Route> _routeCache;
    std::vector<std::unique_ptr<Channel>> _channels;
    std::vector<RingPath> _rings;
    std::map<int, std::vector<VmemPath>> _vmemPaths;
    std::vector<Channel *> _socketChannels;
    std::map<int, Channel *> _memNodeChannels;
};

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_FABRIC_HH
