/**
 * @file
 * Ring-algorithm collective communication engine.
 *
 * Implements the topology-aware, ring-based collectives of NCCL-class
 * libraries (Section II-C): a message is split evenly across every
 * logical ring of the fabric; within a ring it is split into per-stage
 * blocks that rotate around the ring in chunk-granular, pipelined steps.
 * Costs per the classic analysis (Chan et al.):
 *
 *   - all-gather / reduce-scatter: each block travels (stages-1) hops,
 *     so each channel carries (stages-1)/stages of the ring's share.
 *   - all-reduce: reduce-scatter immediately followed by all-gather per
 *     block, 2*(stages-1) hops.
 *   - broadcast: the root's share is pipelined (stages-1) hops around.
 *
 * Because chunks are real transfers on the fabric's channels, collectives
 * contend with concurrent memory-virtualization DMA traffic that shares
 * links — the central MC-DLA modelling requirement.
 */

#ifndef MCDLA_COLLECTIVE_RING_COLLECTIVE_HH
#define MCDLA_COLLECTIVE_RING_COLLECTIVE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "interconnect/fabric.hh"
#include "sim/sim_object.hh"

namespace mcdla
{

/** Collective operation kinds used in DL training (Figure 4). */
enum class CollectiveKind
{
    AllGather,     ///< Gather feature maps X (model parallel).
    AllReduce,     ///< Reduce gradients dX / dW.
    ReduceScatter, ///< First half of all-reduce.
    Broadcast,     ///< Distribute updated weights.
};

const char *collectiveKindName(CollectiveKind kind);

/**
 * Collective algorithm family (--collective).
 *
 * Ring is the paper's NCCL-style baseline: bandwidth-optimal, but
 * every operation pays (stages-1) serialized steps, so small payloads
 * are latency-bound. Tree substitutes binomial trees over Router
 * shortest paths — O(log n) steps moving the full payload each hop —
 * which wins for small messages and loses at bandwidth saturation.
 * Hierarchical composes both: intra-board reduce/broadcast trees with
 * an inter-board ring over the board leaders, the classic two-level
 * scheme for switched scale-out fabrics.
 */
enum class CollectiveAlgorithm
{
    Ring,
    Tree,
    Hierarchical,
};

/// @name CollectiveAlgorithm round-trips (CLI vocabulary)
/// @{

/** Parse an algorithm token ("ring"/"tree"/"hierarchical"); fatal. */
CollectiveAlgorithm parseCollectiveAlgorithm(const std::string &name);

/** Canonical CLI token of an algorithm. */
const char *collectiveAlgorithmToken(CollectiveAlgorithm algo);

/** Every algorithm the parser accepts. */
const std::vector<CollectiveAlgorithm> &allCollectiveAlgorithms();

/** Comma-separated accepted tokens (help text). */
const std::string &collectiveAlgorithmTokenList();

/// @}

/** Engine configuration. */
struct CollectiveConfig
{
    /**
     * Pipeline chunk granularity. The paper's Figure 9 experiment uses
     * 4 KB messages; system-level runs default coarser to keep event
     * counts tractable without changing steady-state bandwidth.
     */
    double chunkBytes = 128.0 * 1024.0;

    /** Algorithm family; Ring reproduces the paper's baseline. */
    CollectiveAlgorithm algorithm = CollectiveAlgorithm::Ring;

    /**
     * Devices per board for the hierarchical algorithm: consecutive
     * ring positions group into boards of this size (the paper's
     * 8-device board), boards reduce internally, and board leaders
     * exchange over an inter-board ring routed on the topology.
     */
    int boardDevices = 8;
};

/**
 * Ring-collective executor bound to one fabric. With a trace sink on
 * its EventQueue, it emits per-ring spans (ring algorithm) and
 * per-round spans (tree/hierarchical) on the "collective" process,
 * category "sync".
 *
 * Each ring's share of an operation is one RingOp record from a pool
 * the engine owns. The record is the ChunkPath of the share's chunks:
 * the stage routes concatenated, walked cyclically, so a chunk hop
 * neither allocates nor touches a reference count.
 */
class CollectiveEngine : public SimObject
{
  public:
    using Handler = std::function<void()>;

    CollectiveEngine(EventQueue &eq, std::string name,
                     const Fabric &fabric, CollectiveConfig cfg = {});

    /**
     * Launch a collective of @p total_bytes across all fabric rings.
     *
     * @param kind Operation.
     * @param total_bytes Synchronization payload (the full message; for
     *        all-reduce/all-gather this is the per-device tensor size).
     * @param on_done Fires when every ring completes.
     * @param root Root device for broadcast (ignored otherwise).
     */
    void launch(CollectiveKind kind, double total_bytes, Handler on_done,
                int root = 0);

    /**
     * Launch a collective on an explicit ring set instead of the
     * fabric's full rings — the cluster path for jobs owning a subset
     * of the devices (rings built with restrictRingToDevices). The
     * rings must outlive the operation; chunk traffic shares the
     * fabric's channels, so co-located jobs contend.
     */
    void launchOn(const std::vector<const RingPath *> &rings,
                  CollectiveKind kind, double total_bytes,
                  Handler on_done, int root = 0);

    /** Number of logical rings in use. */
    std::size_t ringCount() const { return _rings.size(); }

    /** Total payload bytes injected into collectives so far. */
    double bytesLaunched() const { return _bytesLaunched; }

    /** Completed collective operations. */
    std::uint64_t opsCompleted() const { return _opsCompleted; }

    /** Selected algorithm family. */
    CollectiveAlgorithm algorithm() const { return _cfg.algorithm; }

  private:
    /** One barrier-synchronized transfer round: (src, dst) devices. */
    using Round = std::vector<std::pair<int, int>>;

    /** Run one ring's share of an operation. */
    void runOnRing(const RingPath &ring, CollectiveKind kind,
                   double bytes, int root_stage,
                   const std::shared_ptr<Handler> &ring_done);

    /** Dispatch a tree/hierarchical operation over @p devices. */
    void runTreeLike(const std::vector<int> &devices,
                     CollectiveKind kind, double bytes, int root,
                     Handler done);

    /**
     * Execute @p rounds sequentially (a global barrier between
     * rounds); every (src, dst) pair moves @p bytes over the Router
     * route, chunked. Fires @p done after the last round.
     */
    void runRounds(std::shared_ptr<std::vector<Round>> rounds,
                   std::size_t index, double bytes,
                   std::shared_ptr<Handler> done);

    /** Binomial-reduce rounds over @p count positions (leaves first). */
    static std::vector<Round> reduceRounds(int count);

    /** Binomial-broadcast rounds (root position 0 first). */
    static std::vector<Round> broadcastRounds(int count);

    /**
     * The inter-board leader ring of the hierarchical algorithm,
     * embedded over Router shortest paths between consecutive leaders.
     */
    RingPath leaderRing(const std::vector<int> &leaders) const;

    /** One ring's share of an operation in flight: its chunks walk
        the stage routes, concatenated, cyclically. */
    struct RingOp final : ChunkPath
    {
        CollectiveEngine *engine = nullptr;
        std::shared_ptr<Handler> done;

        /** The last chunk arrived: recycle, then fire. */
        void complete() override;
    };

    /** A free record from the pool. */
    RingOp *acquireOp();

    const Fabric &_fabric;
    std::vector<const RingPath *> _rings;
    CollectiveConfig _cfg;
    double _bytesLaunched = 0.0;
    std::uint64_t _opsCompleted = 0;

    /** Every RingOp ever made (a deque keeps addresses stable) and
        the idle ones. */
    std::deque<RingOp> _ops;
    std::vector<RingOp *> _freeOps;

    /** Flows of the tree/hierarchical rounds. */
    FlowPool _flows;
};

/**
 * Closed-form ring-collective latency (no contention), used to validate
 * the DES implementation and for quick analytic studies.
 *
 * @param kind Operation.
 * @param stages Ring stage count.
 * @param bytes Message size on this ring.
 * @param link_bandwidth Per-hop channel bandwidth (bytes/s).
 * @param hop_latency Per-hop propagation latency.
 * @param chunk_bytes Pipeline granularity.
 * @return Completion time in ticks.
 */
Tick analyticRingLatency(CollectiveKind kind, int stages, double bytes,
                         double link_bandwidth, Tick hop_latency,
                         double chunk_bytes);

} // namespace mcdla

#endif // MCDLA_COLLECTIVE_RING_COLLECTIVE_HH
