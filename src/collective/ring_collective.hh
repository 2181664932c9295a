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
 * links — the central MC-DLA modelling requirement. The tree and
 * hierarchical algorithms run through the same per-launch plan as the
 * ring (CollectiveEngine).
 */

#ifndef MCDLA_COLLECTIVE_RING_COLLECTIVE_HH
#define MCDLA_COLLECTIVE_RING_COLLECTIVE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "interconnect/fabric.hh"
#include "sim/sim_object.hh"
#include "sim/text.hh"

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

inline constexpr TokenRow<CollectiveAlgorithm> kCollectiveRows[] = {
    {CollectiveAlgorithm::Ring, "ring"},
    {CollectiveAlgorithm::Tree, "tree"},
    {CollectiveAlgorithm::Hierarchical, "hierarchical", "hier"},
};

/** --collective vocabulary. */
inline constexpr TokenTable<CollectiveAlgorithm> kCollectiveAlgorithms{
    "collective algorithm", kCollectiveRows};

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
 * Collective executor bound to one fabric. With a trace sink on its
 * EventQueue, it emits per-ring spans ("rings" track) and per-round
 * spans ("rounds" track) on the "collective" process, category "sync".
 *
 * Each launch is one pooled CollectiveOp holding the completion and a
 * plan of rounds before -> rings -> rounds after: the ring algorithm
 * is all rings, the tree all rounds, and the hierarchical algorithm
 * board trees around the board leaders' ring. Each ring's share is a
 * pooled RingOp: the ChunkPath of its chunks, the stage routes
 * concatenated and walked cyclically, so a chunk hop neither allocates
 * nor touches a reference count. A null completion runs nothing.
 */
class CollectiveEngine : public SimObject
{
  public:
    CollectiveEngine(EventQueue &eq, std::string name,
                     const Fabric &fabric, CollectiveConfig cfg = {});

    /**
     * Launch a collective of @p total_bytes across all fabric rings.
     *
     * @param kind Operation.
     * @param total_bytes Synchronization payload (the full message; for
     *        all-reduce/all-gather this is the per-device tensor size).
     * @param on_done Fires when the operation completes.
     * @param root Root device for broadcast (ignored otherwise).
     */
    void launch(CollectiveKind kind, double total_bytes,
                EventQueue::Callback on_done, int root = 0);

    /**
     * Launch a collective on an explicit ring set instead of the
     * fabric's full rings — the cluster path for jobs owning a subset
     * of the devices (rings built with restrictRingToDevices). The
     * rings must outlive the operation; chunk traffic shares the
     * fabric's channels, so co-located jobs contend.
     */
    void launchOn(const std::vector<const RingPath *> &rings,
                  CollectiveKind kind, double total_bytes,
                  EventQueue::Callback on_done, int root = 0);

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

    /** One launched operation: its completion and its plan. */
    struct CollectiveOp
    {
        EventQueue::Callback done;
        CollectiveKind kind = CollectiveKind::AllReduce;
        /** Payload; each ring of the ring phase moves its share. */
        double bytes = 0.0;
        int root = 0;
        std::vector<Round> before;
        std::vector<const RingPath *> rings;
        std::vector<Round> after;
        /** The hierarchical algorithm's leader ring. */
        RingPath leaders;
        /** Whether the ring phase has started (rounds run from after). */
        bool afterRings = false;
        std::size_t ringsLeft = 0;
        /** Start of the current round or ring phase (trace spans). */
        Tick started = 0;
    };

    /** One ring's share of an operation in flight. */
    struct RingOp final : ChunkPath
    {
        CollectiveEngine *engine = nullptr;
        CollectiveOp *op = nullptr;
        int stages = 0;

        /** The last chunk arrived: recycle, then count the ring down. */
        void complete() override;
    };

    /** A free record from a pool: @p all, of which @p idle are free. */
    template <class Record>
    static Record *acquire(std::deque<Record> &all,
                           std::vector<Record *> &idle);

    /** The tree or hierarchical plan of @p op over @p order. */
    void planTree(CollectiveOp &op, std::vector<int> order) const;

    /**
     * Run @p op's plan on from round @p index of its current rounds
     * phase (a barrier between rounds, each a flow of one Router route
     * per (src, dst) pair); past the last, start the next phase.
     */
    void runRounds(CollectiveOp *op, std::size_t index);

    /** Run one ring's share of @p op's ring phase. */
    void runOnRing(CollectiveOp *op, const RingPath &ring);

    /** One ring of @p op finished (@p stages 0: a trivial ring). */
    void ringDone(CollectiveOp *op, int stages);

    /** The plan of @p op ran out: recycle, then fire. */
    void finish(CollectiveOp *op);

    /** Binomial-reduce rounds over @p count positions (leaves first). */
    static std::vector<Round> reduceRounds(int count);

    /** Binomial-broadcast rounds (root position 0 first). */
    static std::vector<Round> broadcastRounds(int count);

    const Fabric &_fabric;
    std::vector<const RingPath *> _rings;
    CollectiveConfig _cfg;
    double _bytesLaunched = 0.0;
    std::uint64_t _opsCompleted = 0;

    /** Every record ever made (deques keep addresses stable) and the
        idle ones. */
    std::deque<CollectiveOp> _collectiveOps;
    std::vector<CollectiveOp *> _freeCollectiveOps;
    std::deque<RingOp> _ringOps;
    std::vector<RingOp *> _freeRingOps;

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
