/**
 * @file
 * ServingCluster: inference serving over one shared machine, with
 * optional co-located training.
 *
 * N model replicas — single-device, forward-only TrainingSessions of
 * one catalog workload — serve an open-loop request stream on devices
 * 0..N-1 of a composed System. Each replica's backing store is pinned
 * in the shared memory-node pool (MemoryPoolAllocator) for the whole
 * run; each coalesced batch runs as a fresh forward-only session
 * driven through the async startIteration() API, so its compute is
 * priced by the batch-sensitive roofline model and its paging DMA
 * rides the real fabric channels. A BatchPolicy decides when a
 * replica's queue becomes a batch; a ReplicaRouter decides which queue
 * an arriving request joins.
 *
 * The mixed mode co-locates training: the cluster's JobLifecycle, the
 * same one cluster/Cluster runs, admits JobSpecs FIFO onto the
 * remaining devices beside the replicas' pinned pool blocks. The jobs
 * run as ordinary TrainingSessions on the same EventQueue/System, with
 * their job spans on the "cluster" trace process. Their collectives
 * and paging DMA contend with the replicas' traffic on the shared ring
 * segments and memory-node DIMM buses, so serving-under-training
 * interference is measured, not
 * assumed. On the mc-b ring that contention is spatially asymmetric
 * (a replica neighboring the training gang shares its memory nodes;
 * one in the middle of the serving range does not), which is exactly
 * the signal the SLO-aware router's observed-service-rate predictions
 * exploit and queue-depth balancing cannot.
 *
 * The run produces a ServingReport: per-request latency breakdowns
 * (queue/batch/compute/paging), p50/p95/p99 tails, per-replica
 * utilization, and the co-located jobs' JobOutcomes, all emitted
 * through the standard ResultSet CSV/JSON pipeline.
 */

#ifndef MCDLA_SERVING_SERVING_HH
#define MCDLA_SERVING_SERVING_HH

#include <deque>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "serving/batch_policy.hh"
#include "serving/request.hh"
#include "serving/router.hh"
#include "system/system.hh"
#include "system/training_session.hh"

namespace mcdla
{

/** Serving-cluster configuration, with the run's observers. */
struct ServingConfig : ObserverSet
{
    /**
     * The machine and the serving knobs, in the Scenario vocabulary:
     * workload names the replicated model, globalBatch caps each
     * coalesced batch, and the serve-block fields (replicas,
     * batchPolicy, batchTimeoutMs, sloMs, router) select the policies.
     * The scenario's seed names the synthetic request stream the
     * caller fed to synthesizeRequests().
     */
    Scenario base;
    /** Pool allocator for replica pins and training backing stores. */
    PoolAllocatorKind allocator = PoolAllocatorKind::FirstFit;
    /**
     * Admission control: shed an arriving request when even the chosen
     * replica's predicted completion exceeds this multiple of the SLO
     * (needs replicas with observed service rates). 0 disables
     * shedding — every request is admitted.
     */
    double admitGraceFactor = 0.0;
    /** Training jobs co-located on the non-replica devices (FIFO). */
    std::vector<JobSpec> trainingJobs;
    /** inform() on every batch launch/completion. */
    bool progress = false;
};

/** Final state of one submitted request. */
struct RequestOutcome
{
    Request request;
    /** Replica the router chose (-1 until routed). */
    int replica = -1;
    /** When the request's batch launched (-1 while queued). */
    double dispatchSec = -1.0;
    /** When the request's batch completed (-1 while in flight). */
    double doneSec = -1.0;
    /** Samples of the coalesced batch the request rode in. */
    int batchSamples = 0;
    /** Its batch's compute busy time (shared by the whole batch). */
    double computeSec = 0.0;
    /** Its batch's paging-DMA in-flight time. */
    double pagingSec = 0.0;
    bool completed = false;
    /** Shed at the door by admission control. */
    bool dropped = false;

    /** Queueing + coalescing wait before the batch launched. */
    double
    queueSec() const
    {
        return std::max(0.0, dispatchSec - request.arrivalSec);
    }

    /** Batch service time (launch to completion). */
    double serviceSec() const { return doneSec - dispatchSec; }

    /** End-to-end request latency. */
    double latencySec() const { return doneSec - request.arrivalSec; }

    bool
    sloMet(double slo_sec) const
    {
        return completed && latencySec() <= slo_sec;
    }
};

/**
 * SimCheck: request accounting. Panics (SimCheck[serving]) unless
 * every submitted request either completed or was shed — exactly one
 * of the two — and every completed request carries a routed replica
 * and a dispatch/done timestamp pair. ServingCluster::run() asserts
 * this over its outcomes after the event queue drains; exposed as a
 * free function so the invariant is testable on synthetic outcomes.
 */
void simcheckVerifyRequestOutcomes(
    const std::vector<RequestOutcome> &outcomes);

/** One replica's whole-run accounting. */
struct ReplicaStats
{
    int device = -1;
    int batches = 0;
    std::int64_t samplesServed = 0;
    /** Seconds the replica had a batch in flight. */
    double busySec = 0.0;
    /** Final observed per-sample service time (EWMA). */
    double ewmaPerSampleSec = 0.0;
    /** Deepest sample backlog the replica's queue reached. */
    int peakQueueSamples = 0;

    double
    meanBatchSamples() const
    {
        return batches > 0
            ? static_cast<double>(samplesServed)
                / static_cast<double>(batches)
            : 0.0;
    }
};

/** Everything a serving run produced. */
class ServingReport
{
  public:
    std::vector<RequestOutcome> requests;
    std::vector<ReplicaStats> replicas;
    /** Co-located training jobs (cluster-vocabulary outcomes). */
    std::vector<JobOutcome> trainingJobs;
    double makespanSec = 0.0;
    BatchPolicyKind batchPolicy = BatchPolicyKind::Continuous;
    RouterKind router = RouterKind::SloAware;
    double sloSec = 0.0;
    std::uint64_t poolCapacity = 0;
    std::uint64_t poolPeakUsed = 0;

    /// @name Aggregate metrics (over completed requests)
    /// @{
    std::size_t completedRequests() const;
    std::size_t droppedRequests() const;
    double meanLatencyMs() const;
    /** Latency tail (core/report percentile()), milliseconds. */
    double latencyPercentileMs(double p) const;
    /** Fraction of completed requests that missed the SLO. */
    double sloViolationRate() const;
    /** Completed requests per second of makespan. */
    double throughputRps() const;
    double meanBatchSamples() const;
    /// @}

    /// @name ResultSet emission (CSV/JSON via core/report)
    /// @{
    static const std::vector<std::string> &requestColumns();
    static std::vector<ReportValue>
    requestRow(const RequestOutcome &outcome, double slo_sec);
    ResultSet requestTable() const;

    static const std::vector<std::string> &replicaColumns();
    ResultSet replicaTable() const;
    /// @}
};

/**
 * One serving simulation: a machine, a request stream, policies.
 *
 * Its observers trace async request spans (arrival to reply) on the
 * "serving" process, per-replica batch spans, shed-request instants
 * and batch->first-op dispatch flows. Co-located training jobs run the
 * cluster's JobLifecycle, so their queue/run spans and rejected
 * instants land on the "cluster" process, exactly as in a Cluster run.
 * The metrics sample the system gauges plus pool occupancy, serving
 * queue depth, in-flight samples and busy replicas. Request arrivals
 * and batch timers tag batch-wait edges in the serving context of the
 * causal recorder; co-located jobs tag sched-wait edges.
 */
class ServingCluster
{
  public:
    /**
     * @param cfg Machine + policy configuration (cfg.base.serve is
     *        implied; replicas claim devices 0..replicas-1).
     * @param stream Request stream (any order; sorted by arrival).
     */
    ServingCluster(ServingConfig cfg, std::vector<Request> stream);

    /** Run the whole stream (and co-located jobs) to completion. */
    ServingReport run();

    /// @name Introspection (tests)
    /// @{
    System &system() { return *_system; }
    std::uint64_t poolCapacityBytes() const { return _poolCapacity; }
    /// @}

  private:
    /** One model replica and its queue. */
    struct Replica
    {
        int device = -1;
        /** Waiting request indices, arrival order. */
        std::deque<std::size_t> queue;
        int queuedSamples = 0;
        bool busy = false;
        /** Request indices of the in-flight batch. */
        std::vector<std::size_t> inflight;
        int inflightSamples = 0;
        double batchStartSec = 0.0;
        /** Launch tick of the in-flight batch (trace span anchor). */
        Tick batchStartTick = 0;
        std::unique_ptr<TrainingSession> session;
        PoolBlock block;
        bool hasBlock = false;
        double ewmaPerSampleSec = 0.0;
        bool timerArmed = false;
        // Whole-run stats.
        int batches = 0;
        std::int64_t samplesServed = 0;
        double busySec = 0.0;
        int peakQueueSamples = 0;
    };

    ReplicaLoad loadView(const Replica &replica) const;
    void onRequestArrival(std::size_t index);
    void maybeLaunch(std::size_t r);
    void launchBatch(std::size_t r);
    void onBatchDone(std::size_t r, const IterationResult &result);
    void cleanupBatch(std::size_t r);

    ServingConfig _cfg;
    std::vector<Request> _stream;
    EventQueue _eq;
    std::unique_ptr<System> _system;
    Simulator _networks; ///< Workload network cache.
    std::shared_ptr<const Network> _net; ///< The replicated model.
    std::uint64_t _poolCapacity = 0;
    std::uint64_t _replicaPool = 0;
    std::unique_ptr<MemoryPoolAllocator> _pool;
    std::unique_ptr<BatchPolicy> _policy;
    std::unique_ptr<ReplicaRouter> _router;
    double _sloSec = 0.0;
    int _maxBatch = 1;
    std::vector<Replica> _replicas;
    std::vector<RequestOutcome> _outcomes;
    /** Arrivals processed; the stream is drained when it hits size. */
    std::size_t _arrived = 0;

    /** Co-located training on the non-replica devices. */
    std::unique_ptr<JobLifecycle> _jobs;
    bool _ran = false;
};

} // namespace mcdla

#endif // MCDLA_SERVING_SERVING_HH
