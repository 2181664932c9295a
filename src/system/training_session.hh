/**
 * @file
 * TrainingSession: event-driven simulation of one training iteration.
 *
 * Under data/model parallelism every device runs the same SPMD program
 * — forward pass in topological order, backward pass in reverse, then
 * weight updates — on its serial compute stream, while:
 *
 *  - the paged device-memory subsystem (src/vmem/paging) migrates each
 *    stashed tensor between device HBM and the backing store under the
 *    configured prefetch/eviction policies: the default static-plan
 *    policy reproduces the vDNN schedule (offload after the last
 *    forward use, prefetch with a lookahead window), while the
 *    on-demand and history policies fault, stall, and fill against a
 *    finite HBM frame budget;
 *  - parallel-training synchronization points launch ring collectives on
 *    the fabric when the last device arrives (blocking for
 *    model-parallel X/dX aggregation, update-gating for data-parallel
 *    dW all-reduce).
 *
 * Under pipeline parallelism each device instead runs its own stage
 * program (GPipe-style): M microbatch forward waves, M backward waves
 * in reverse microbatch order, then stage-local weight updates. Stages
 * exchange boundary activations and gradients point-to-point on the
 * fabric — no collectives — and each stage drives a stage-local pager
 * whose page groups are (tensor, microbatch) pairs.
 *
 * One builder makes both: dp and mp are the one-stage, one-microbatch
 * pipeline whose single stage program every device runs, with the
 * collectives attached to its ops.
 *
 * All traffic shares the fabric's channels, so the contention between
 * collectives/boundary transfers and virtualization DMA — the crux of
 * the MC-DLA trade-off — is captured by construction. The session
 * reports both the Figure 11 per-category latency totals (union of busy
 * intervals per category) and the overlapped makespan used by
 * Figures 13/14.
 */

#ifndef MCDLA_SYSTEM_TRAINING_SESSION_HH
#define MCDLA_SYSTEM_TRAINING_SESSION_HH

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "parallel/strategy.hh"
#include "sim/trace.hh"
#include "system/latch.hh"
#include "system/system.hh"
#include "vmem/offload_plan.hh"
#include "vmem/paging/pager.hh"

namespace mcdla
{

/** Figure 11 per-category latency totals (one device's view). */
struct LatencyBreakdown
{
    double computeSec = 0.0; ///< Forward+backward+update busy time.
    double syncSec = 0.0;    ///< Union of collective/p2p in-flight time.
    double vmemSec = 0.0;    ///< Union of vmem DMA in-flight intervals.
    double exposedSyncSec = 0.0; ///< Compute stalls attributed to sync.
    double exposedVmemSec = 0.0; ///< Compute stalls attributed to vmem.

    double
    total() const
    {
        return computeSec + syncSec + vmemSec;
    }
};

/**
 * One fabric channel's activity during an iteration. Like hostBytes,
 * this is the machine's view: on a multi-tenant cluster the deltas
 * include co-located jobs' traffic through the shared links.
 */
struct ChannelUsage
{
    std::string channel;      ///< Fully qualified channel name.
    double bytes = 0.0;       ///< Payload delivered this iteration.
    double busySec = 0.0;     ///< Occupied time this iteration.
    double utilization = 0.0; ///< busySec over the iteration makespan.
    /**
     * Deepest FIFO backlog of the whole run so far — NOT a
     * per-iteration delta like the fields above: a max cannot be
     * delta'd.
     */
    std::size_t peakQueueDepth = 0;
};

/**
 * Results of one simulated training iteration.
 *
 * The machine's counters only grow, so every field but two is a delta
 * over this iteration alone. The machine-global ones — hostBytes,
 * hostAvgBwPerSocket, eventsExecuted and the channels' bytes and busy
 * time — include, on a multi-tenant cluster, co-located jobs'
 * traffic/events during this job's iteration window (the machine's
 * view, not an attribution). Per-device fields (breakdown, paging,
 * offload bytes) are exact for the owning session. The two peaks,
 * hostPeakBwPerSocket and ChannelUsage::peakQueueDepth, cover the
 * whole run so far.
 */
struct IterationResult
{
    Tick makespan = 0;             ///< Wall-clock of the iteration.
    LatencyBreakdown breakdown;    ///< Figure 11 inputs.
    double hostBytes = 0.0;        ///< Traffic through host sockets.
    double hostAvgBwPerSocket = 0.0;  ///< Figure 12 "avg" series.
    /** Figure 12 "max" series: the run-wide peak, not this
        iteration's. */
    double hostPeakBwPerSocket = 0.0;
    /** Bytes the reported device's DMA engine offloaded plus
        prefetched during this iteration. */
    double offloadBytesPerDevice = 0.0;
    double syncBytes = 0.0;        ///< Collective/p2p payload launched.
    std::uint64_t eventsExecuted = 0;
    /** Paging activity of the reported device: device 0 for the SPMD
        modes, the busiest (bottleneck) stage under pipeline. */
    PagingCounters paging;
    /** Per-channel activity, fabric channel order (machine view). */
    std::vector<ChannelUsage> channels;

    /** The most-utilized channel — the bottleneck *link*, which a
        per-stage breakdown cannot see; nullptr when untracked. */
    const ChannelUsage *
    bottleneckChannel() const
    {
        const ChannelUsage *best = nullptr;
        for (const ChannelUsage &usage : channels)
            if (best == nullptr || usage.utilization > best->utilization)
                best = &usage;
        return best;
    }

    double iterationSeconds() const { return ticksToSeconds(makespan); }

    /** Throughput in iterations/sec (Figure 13's "performance"). */
    double
    performance() const
    {
        const double s = iterationSeconds();
        return s > 0.0 ? 1.0 / s : 0.0;
    }
};

/**
 * Drives one System through training iterations of one workload. With
 * a trace sink on the System's EventQueue, each iteration emits op,
 * DMA, and collective/p2p spans (device-0 view plus the global tracks).
 */
class TrainingSession
{
  public:
    /**
     * @param system Composed design point.
     * @param net Workload network.
     * @param mode Data-, model-, or pipeline-parallel.
     * @param global_batch Total minibatch (512 in the paper).
     * @param pipeline_stages Pipeline stage count (--mode pp only;
     *        0 = one stage per device).
     * @param microbatches GPipe microbatches per iteration (pp only).
     * @param device_set System device indices this session owns (empty
     *        = all of them, the classic whole-machine run). A subset
     *        session — the cluster's multi-tenant path — runs its
     *        stage programs on just those devices; its collectives
     *        ring over the owned subset (restrictRingToDevices) but
     *        still traverse the full physical loop, so co-located
     *        jobs' traffic contends on the shared channels.
     * @param forward_only Inference mode (the serving path): the device
     *        programs stop after the forward pass — no backward ops, no
     *        weight updates, no dW all-reduce — but offloaded stashes
     *        still page out through the backing store, so a serving
     *        replica's writeback DMA contends on the real channels.
     *        Only the dp/mp SPMD modes support it.
     */
    TrainingSession(System &system, const Network &net, ParallelMode mode,
                    std::int64_t global_batch, int pipeline_stages = 0,
                    int microbatches = 1,
                    std::vector<int> device_set = {},
                    bool forward_only = false);

    const ParallelStrategy &strategy() const { return _strategy; }
    const OffloadPlan &plan() const { return _plan; }

    /** Devices this session runs on (system indices, local order). */
    const std::vector<int> &deviceSet() const { return _deviceSet; }

    /** Number of devices this session owns. */
    int
    deviceCount() const
    {
        return static_cast<int>(_deviceSet.size());
    }

    /**
     * Per-device memory demand if nothing were offloaded: weights +
     * resident stash + working buffers. Used for capacity-wall checks.
     * Under pipeline parallelism this is the worst stage's demand.
     */
    std::uint64_t footprintBytesPerDevice() const;

    /** Simulate one iteration and return its metrics. */
    IterationResult run();

    /**
     * Begin one iteration without draining the event queue — the
     * cluster path, where many sessions share one EventQueue; run() is
     * this plus a drain. Only the owned devices' per-iteration compute
     * counters are cleared (the fabric is shared); @p on_done fires,
     * with the iteration metrics, once the last owned device has
     * drained its program and every pager's DMA is idle. The caller
     * drives the queue.
     */
    void
    startIteration(std::function<void(const IterationResult &)> on_done);

    /**
     * Free everything allocateBuffers() claimed — devicelocal
     * footprints, remote stash buffers, and the pagers — so another
     * session can reuse the devices. Idempotent.
     */
    void releaseBuffers();

    /**
     * Arm a flow arrow: the next traced compute-op span terminates
     * flow @p flow (TraceSink::newFlow id). Drivers — the cluster's
     * job spans, serving's batch spans — use this to draw
     * dispatch → first-op arrows across processes.
     */
    void setIterationFlow(std::uint64_t flow) { _iterFlow = flow; }

    /**
     * Bytes currently resident in the owned devices' HBM page tables
     * (0 before the first iteration allocates pagers) — the "HBM
     * residency" metric gauge.
     */
    std::uint64_t hbmResidentBytes() const;

    /**
     * Device @p dev's pager (valid after the first run()); exposes the
     * page table and the hit/miss/stall statistics.
     */
    DevicePager &pager(int dev);

    /** Every owned device's pager, session device order (empty
        before the first iteration). */
    const std::vector<std::unique_ptr<DevicePager>> &
    pagers() const
    {
        return _pagers;
    }

  private:
    /// One pipeline point-to-point transfer attached to an op.
    struct P2pSend
    {
        int token = -1;     ///< Latch completed when the flow drains.
        int dst = -1;       ///< Destination device.
        double bytes = 0.0; ///< Payload.
    };

    /// One scheduled operation of a device program.
    struct OpSpec
    {
        enum class Kind { Fwd, Bwd, Wup };
        Kind kind = Kind::Fwd;
        LayerId layer = invalidLayerId;
        Tick duration = 0;
        std::optional<SyncOp> syncAfter;
        bool needsDwLatch = false;
        /// Pipeline: p2p latches this op must wait on before issuing
        /// (boundary activation/gradient arrival, tied-dW reduction).
        std::vector<int> recvTokens;
        /// Pipeline: transfers launched when this op retires.
        std::vector<P2pSend> sends;
    };

    /// Per-device execution state for one iteration.
    struct DeviceCtx
    {
        std::size_t nextOp = 0;
        bool running = false;
        Latch *blockingGate = nullptr;
        Tick readyAt = 0;
        /// Category of the gate most recently waited on (0 none,
        /// 1 sync, 2 vmem).
        int waitedCat = 0;
    };

    void buildSchedule();
    void allocateBuffers();
    void createPagers();

    /// System device index of local device @p dev.
    int
    sysDev(int dev) const
    {
        return _deviceSet[static_cast<std::size_t>(dev)];
    }

    /// Reset per-iteration state and seed every owned device's program
    /// (the shared tail of run() and startIteration()).
    void setupIteration();

    /// Assemble the metrics of the iteration that just drained.
    IterationResult collectResult();

    /// One owned device drained its program; fires the completion
    /// callback on the last one.
    void deviceFinished();

    /// Fire the completion callback once every pager's DMA is
    /// quiescent (trailing writebacks outlive the compute programs).
    void finishWhenQuiescent();

    /// Launch one collective over this session's rings (the fabric's
    /// full rings for whole-machine sessions, the restricted sub-rings
    /// otherwise).
    void launchCollective(const SyncOp &sync,
                          EventQueue::Callback on_done);

    /// One stage's device program.
    struct StageProgram
    {
        std::vector<OpSpec> ops;
        /// Paging actions per op (produced stashes, plan writebacks,
        /// stash reads, releases), consumed by the stage's pagers.
        PagingSchedule paging;
        /// Offloaded stash tensors the stage's pagers own, each one
        /// page group per microbatch.
        std::vector<LayerId> stash;
    };

    /// Local device @p dev's program: its stage's (every dp/mp device
    /// shares stage 0's), empty for an idle pipeline device.
    const StageProgram &program(int dev) const;

    /// Page-group id of one microbatch's copy of a stash tensor (the
    /// layer id itself under dp/mp, which run one microbatch).
    LayerId groupId(LayerId layer, int microbatch) const;

    /// HBM demand of stage @p s (weights + kept stash + working set).
    std::uint64_t stageFootprintBytes(int s) const;

    void tryIssue(int dev);
    void completeOp(int dev);
    /// Launch one pipeline point-to-point transfer.
    void issueP2p(int src, const P2pSend &send);
    /// The device whose view the iteration metrics report: device 0
    /// for the SPMD modes, the busiest stage under pipeline.
    int reportDevice() const;

    System &_system;
    const Network &_net;
    /// Owned system device indices; index = local device id. Declared
    /// before _strategy (constructed from its size).
    std::vector<int> _deviceSet;
    /// Whole-machine session (uses the fabric's rings verbatim).
    bool _ownsAllDevices = true;
    /// Inference mode: forward pass only (see the constructor).
    bool _forwardOnly = false;
    ParallelStrategy _strategy;
    OffloadPlan _plan;
    /// Restricted collective rings of a subset session (and the
    /// pointer view launchOn() consumes).
    std::vector<RingPath> _jobRings;
    std::vector<const RingPath *> _jobRingPtrs;

    /// Stage programs, indexed by stage (one stage for dp/mp).
    std::vector<StageProgram> _stages;
    /// Stage each local device runs (ParallelStrategy::stageOfDevice;
    /// -1 idle).
    std::vector<int> _deviceStage;
    /// The empty program of idle pipeline devices.
    StageProgram _idle;
    std::vector<LayerTiming> _timings;
    bool _allocated = false;
    /// Devicelocal footprint allocations, one per owned device, so
    /// releaseBuffers() can return them.
    std::vector<Placement> _localPlacements;
    /// Remote allocations per device, by page-group id (groupId()).
    std::vector<std::map<LayerId, RemotePtr>> _remotePtrs;
    /// Paged device-memory managers, one per device (persistent across
    /// iterations so history-based policies can learn).
    std::vector<std::unique_ptr<DevicePager>> _pagers;
    /// Pipeline p2p routes (one each), keyed src * numDevices + dst.
    std::map<int, std::vector<Route>> _p2pRoutes;
    /// Flows of the pipeline p2p transfers.
    FlowPool _flows;
    int _p2pTokenCount = 0;
    double _p2pBytesTotal = 0.0;

    // Per-iteration state.
    std::vector<DeviceCtx> _devs;
    /// Collective sync points by (stage, op index).
    std::map<std::pair<int, std::size_t>, std::unique_ptr<SyncPoint>>
        _syncPoints;
    std::map<LayerId, SyncPoint *> _dwSync;
    /// Pipeline boundary-transfer latches, indexed by token.
    std::vector<std::unique_ptr<Latch>> _p2pLatches;
    /// Pending dispatch-flow id (0 none); cleared by the first traced
    /// compute-op span.
    std::uint64_t _iterFlow = 0;
    /// Lazily built "dev<sysDev(0)>.compute" trace track name.
    std::string _computeTrack;

    /// Trace track of the owned device 0's compute stream.
    const std::string &
    computeTrack()
    {
        if (_computeTrack.empty())
            _computeTrack =
                "dev" + std::to_string(sysDev(0)) + ".compute";
        return _computeTrack;
    }

    ActivityTracker _syncTracker;
    ActivityTracker _vmemTracker;
    /// Local device @p dev's compute-busy ticks this iteration.
    Tick
    computeTicks(int dev) const
    {
        return _system.device(sysDev(dev)).computeBusyTicks();
    }

    /// Per-device stall totals; dp/mp report device 0 (the SPMD
    /// program makes it representative), pipeline reports the busiest
    /// stage.
    std::vector<Tick> _stallSync;
    std::vector<Tick> _stallVmem;
    Tick _startTick = 0;
    std::uint64_t _eventsBefore = 0;
    /// Host-socket byte counter at iteration start (the fabric is
    /// shared under multi-tenancy, so hostBytes reports a delta).
    double _hostBytesBefore = 0.0;
    /// Each owned device's DMA bytes (offloaded + prefetched) at
    /// iteration start: the engines keep lifetime totals, so
    /// offloadBytesPerDevice reports a delta.
    std::vector<double> _dmaBytesBefore;
    /// Per-channel byte/busy snapshots at iteration start, fabric
    /// channel order (channel counters are cumulative on a shared
    /// fabric; the iteration reports deltas).
    std::vector<double> _chanBytesBefore;
    std::vector<Tick> _chanBusyBefore;
    double _iterSyncBytes = 0.0;
    /// Owned devices still draining the current iteration.
    int _devicesRemaining = 0;
    /// The current iteration's completion callback (startIteration()).
    std::function<void(const IterationResult &)> _onIterationDone;
};

} // namespace mcdla

#endif // MCDLA_SYSTEM_TRAINING_SESSION_HH
