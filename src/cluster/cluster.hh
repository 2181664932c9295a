/**
 * @file
 * Cluster: multi-job scheduling over one shared machine.
 *
 * A Cluster admits a stream of training jobs (JobSpec arrivals),
 * schedules them onto the device-nodes of a single composed System
 * through a pluggable JobScheduler, and carves each job's
 * backing-store demand out of a shared MemoryPoolAllocator spanning
 * every memory-node. All admitted jobs run as concurrent
 * TrainingSessions on the one EventQueue, so their paging DMA,
 * collectives, and pipeline transfers contend on the real fabric
 * channels — no job gets private bandwidth. The run produces a
 * ClusterReport: per-job completion/queueing/slowdown metrics plus a
 * pool-occupancy timeline, both emitted through the standard
 * ResultSet CSV/JSON pipeline.
 *
 * The job lifecycle itself — arrival, admission, the running session,
 * teardown, and the job spans on the "cluster" trace process — is a
 * JobLifecycle. Cluster runs one over every device; ServingCluster
 * runs the same one over the devices its replicas leave free.
 */

#ifndef MCDLA_CLUSTER_CLUSTER_HH
#define MCDLA_CLUSTER_CLUSTER_HH

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/job.hh"
#include "cluster/pool_allocator.hh"
#include "cluster/scheduler.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "sim/random.hh"
#include "system/system.hh"
#include "system/training_session.hh"

namespace mcdla
{

/**
 * Device-selection policy for admitted jobs.
 *
 * First takes the lowest-indexed free devices (the legacy policy).
 * Compact minimizes the job's internal communication distance: it
 * greedily grows the gang from the seed whose placement has the lowest
 * total pairwise hop count, using the Router's real channel-traversal
 * distances over the fabric topology — so a job lands on devices that
 * are close on the actual wiring, not just low-numbered.
 */
enum class JobPlacement
{
    First,
    Compact,
};

inline constexpr TokenRow<JobPlacement> kJobPlacementRows[] = {
    {JobPlacement::First, "first"},
    {JobPlacement::Compact, "compact"},
};

/** --placement vocabulary. */
inline constexpr TokenTable<JobPlacement> kJobPlacements{
    "placement", kJobPlacementRows};

/**
 * Pick @p count devices from the @p free set (ascending order) under
 * @p placement, using @p fabric's Router hop counts as the distance
 * metric for Compact. Returns the chosen devices sorted ascending;
 * fewer than @p count when the free set is too small.
 */
std::vector<int> placeJobDevices(const Fabric &fabric,
                                 const std::vector<int> &free,
                                 int count, JobPlacement placement);

/**
 * Capacity of the shared backing-store pool of @p system: each
 * distinct backing target — every memory-node reachable from any
 * device, or the host DRAM for the PCIe designs — counted once.
 * Designs without a backing store get a token 1-byte pool so an
 * allocator can exist. Shared by Cluster and ServingCluster.
 */
std::uint64_t sharedPoolCapacityBytes(System &system);

/** Cluster-level configuration, with the run's observers. */
struct ClusterConfig : ObserverSet
{
    /**
     * The machine: design point, device count, and every hardware /
     * paging override, reusing the Scenario vocabulary. The scenario's
     * workload/mode/batch fields are ignored (jobs carry their own);
     * its seed names the synthetic job stream the caller fed to
     * synthesizeJobs(), so the label reproduces the run.
     */
    Scenario base;
    SchedulerKind scheduler = SchedulerKind::Fifo;
    PoolAllocatorKind allocator = PoolAllocatorKind::FirstFit;
    /** Device-selection policy for admitted jobs. */
    JobPlacement placement = JobPlacement::First;
    /** inform() on every admission/completion. */
    bool progress = false;
};

/** Final state of one submitted job. */
struct JobOutcome
{
    JobSpec spec;
    /** Device-nodes the job ran on (empty until started). */
    std::vector<int> devices;
    /** Pool bytes carved for the job's backing store. */
    std::uint64_t poolBytes = 0;
    /** Analytic-oracle solo service time (iterations x upper bound). */
    double estSoloSec = 0.0;
    double arrivalSec = 0.0;
    double startSec = -1.0;
    double finishSec = -1.0;
    bool completed = false;
    /** Infeasible on this cluster (too many devices / too much pool). */
    bool rejected = false;
    /** Metrics of the job's last iteration. */
    IterationResult lastIteration;

    /** Queueing delay (clamped: arrival ticks round to the grid). */
    double
    queueSec() const
    {
        return std::max(0.0, startSec - arrivalSec);
    }

    double serviceSec() const { return finishSec - startSec; }

    /** Job completion time: queueing plus service. */
    double jctSec() const { return finishSec - arrivalSec; }

    /** Classic slowdown: response time over actual service time. */
    double
    slowdown() const
    {
        return serviceSec() > 0.0 ? jctSec() / serviceSec() : 1.0;
    }

    /** Service-time dilation vs the analytic solo bound (contention). */
    double
    contention() const
    {
        return estSoloSec > 0.0 ? serviceSec() / estSoloSec : 1.0;
    }
};

/** One pool-occupancy observation (taken at every alloc/free). */
struct PoolSample
{
    double timeSec = 0.0;
    const char *event = ""; ///< "alloc" / "free" / "fail".
    std::string job;
    std::uint64_t usedBytes = 0;
    std::uint64_t freeBytes = 0;
    std::uint64_t largestFreeBytes = 0;
    double fragmentation = 0.0;
    int busyDevices = 0;
};

/** Everything a cluster run produced. */
class ClusterReport
{
  public:
    std::vector<JobOutcome> jobs;
    std::vector<PoolSample> timeline;
    double makespanSec = 0.0;
    SchedulerKind scheduler = SchedulerKind::Fifo;
    PoolAllocatorKind allocator = PoolAllocatorKind::FirstFit;
    JobPlacement placement = JobPlacement::First;
    std::uint64_t poolCapacity = 0;
    std::uint64_t poolPeakUsed = 0;
    std::uint64_t allocationFailures = 0;

    /// @name Aggregate metrics (over completed jobs)
    /// @{
    std::size_t completedJobs() const;
    double meanJctSec() const;
    double meanQueueSec() const;
    double meanSlowdown() const;
    /** JCT tail percentile (core/report percentile()), seconds. */
    double jctPercentileSec(double p) const;
    /** Slowdown tail percentile over completed jobs. */
    double slowdownPercentile(double p) const;
    /** Mean pool fragmentation over the timeline samples. */
    double meanFragmentation() const;
    double peakPoolUtilization() const;
    /// @}

    /// @name ResultSet emission (CSV/JSON via core/report)
    /// @{
    static const std::vector<std::string> &jobColumns();
    static std::vector<ReportValue> jobRow(const JobOutcome &job);
    ResultSet jobTable() const;

    static const std::vector<std::string> &poolColumns();
    ResultSet poolTable() const;
    /// @}
};

/**
 * The lifecycle of a stream of training jobs on a subset of one
 * System's devices. A job arrives, is rejected if its shape can never
 * run, or queues for the scheduler. Admission carves its pool block,
 * picks its devices, and runs its iterations as a TrainingSession.
 * Teardown is a zero-delay "job_cleanup" event, which frees the job's
 * resources and re-runs admission. Every alloc/free is sampled into a
 * pool timeline. With a trace sink on the EventQueue, each job gets a
 * track on the "cluster" process: a "queue" span from arrival to
 * start, a "job" span from start to finish, and a flow arrow from
 * admission to its first compute op; rejected jobs get instants.
 */
class JobLifecycle
{
  public:
    /**
     * @param cfg Scheduler, allocator kind, placement, progress
     *        (cfg.base and the observers are not read).
     * @param system The machine the sessions run on.
     * @param networks Workload network cache.
     * @param pool The shared pool; job blocks are carved from it.
     * @param pool_capacity Bytes @p pool was created with.
     * @param devices The devices jobs may run on.
     * @param pinned_bytes Pool bytes other users hold for the whole
     *        run: a job that cannot fit beside them is rejected.
     * @param jobs Submitted job stream (any order; sorted by arrival).
     */
    JobLifecycle(const ClusterConfig &cfg, System &system,
                 Simulator &networks, MemoryPoolAllocator &pool,
                 std::uint64_t pool_capacity, std::vector<int> devices,
                 std::uint64_t pinned_bytes, std::vector<JobSpec> jobs);

    /// Scheduled events capture `this`.
    JobLifecycle(const JobLifecycle &) = delete;
    JobLifecycle &operator=(const JobLifecycle &) = delete;

    /** Schedule every job's arrival on the System's EventQueue. */
    void scheduleArrivals();

    /** Panic unless every job left the queue and finished. */
    void checkDrained() const;

    const std::vector<JobOutcome> &outcomes() const { return _outcomes; }
    const std::vector<PoolSample> &timeline() const { return _timeline; }
    int busyDevices() const;
    std::size_t queuedJobs() const { return _queue.size(); }
    std::size_t runningJobs() const { return _active.size(); }

  private:
    /** One admitted, running job. */
    struct ActiveJob
    {
        std::unique_ptr<TrainingSession> session;
        std::shared_ptr<const Network> net;
        PoolBlock block;
        bool hasBlock = false;
        int remainingIterations = 0;
        /** Admission tick (trace span anchor). */
        Tick startTick = 0;
        /** Per-job trace track on the "cluster" process. */
        std::string traceTrack;
    };

    void onArrival(std::size_t index);
    void tryAdmit();
    void startJob(std::size_t queue_pos);
    void stepJob(std::size_t index);
    void finishJob(std::size_t index);
    void cleanupJob(std::size_t index);
    void samplePool(const char *event, const std::string &job);

    ClusterConfig _cfg;
    System &_system;
    EventQueue &_eq;
    Simulator &_networks;
    MemoryPoolAllocator &_pool;
    std::uint64_t _poolCapacity;
    std::size_t _deviceCount;
    std::uint64_t _pinnedBytes;
    std::vector<JobSpec> _specs;
    std::unique_ptr<JobScheduler> _scheduler;
    std::set<int> _freeDevices;
    std::vector<PendingJob> _queue;
    std::map<std::size_t, ActiveJob> _active;
    std::vector<JobOutcome> _outcomes;
    std::vector<PoolSample> _timeline;
    /// Job whose memory-induced head-of-line blocking was already
    /// recorded (npos = none): one failure per blocked episode.
    std::size_t _memoryBlockedJob = JobScheduler::npos;
};

/**
 * One cluster simulation: a machine, a job stream, a policy pair.
 *
 * Its observers trace the job lifecycle spans plus every admitted
 * session's compute/DMA/collective spans, and sample the system
 * gauges plus pool occupancy/fragmentation and busy-device and
 * queued/running job counts. Job arrivals and scheduler passes tag
 * sched-wait edges in the cluster context of the causal recorder.
 */
class Cluster
{
  public:
    /**
     * @param cfg Machine + policy configuration.
     * @param jobs Submitted job stream (any order; sorted by arrival).
     */
    Cluster(ClusterConfig cfg, std::vector<JobSpec> jobs);

    /** Run the whole stream to completion. Callable once. */
    ClusterReport run();

    /// @name Introspection (tests)
    /// @{
    System &system() { return *_system; }
    MemoryPoolAllocator &pool() { return *_pool; }
    std::uint64_t poolCapacityBytes() const { return _poolCapacity; }
    /// @}

    /**
     * Backing-store pool demand of @p spec on machine @p cfg: the
     * remote bytes its TrainingSession will allocate — rounded to
     * @p page_bytes, the device address spaces' placement granularity
     * — summed over its devices (zero for designs without a backing
     * store). Mirrors the remote mallocs of
     * TrainingSession::allocateBuffers().
     */
    static std::uint64_t jobPoolBytes(const JobSpec &spec,
                                      const Network &net,
                                      const SystemConfig &cfg,
                                      std::uint64_t page_bytes
                                          = 2 * kMiB);

  private:
    ClusterConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<System> _system;
    Simulator _networks; ///< Workload network cache.
    std::uint64_t _poolCapacity = 0;
    std::unique_ptr<MemoryPoolAllocator> _pool;
    std::unique_ptr<JobLifecycle> _jobs;
    bool _ran = false;
};

} // namespace mcdla

#endif // MCDLA_CLUSTER_CLUSTER_HH
