/**
 * @file
 * Pluggable cluster job schedulers.
 *
 * A scheduler looks at the waiting queue and the free resources —
 * device-nodes and the shared memory pool — and names the job to admit
 * next, or nothing. Policies differ in how they trade queueing
 * fairness against utilization:
 *
 *  - FIFO: strict arrival order; a job that does not fit blocks
 *    everything behind it (head-of-line blocking),
 *  - SJF: the shortest waiting job by the AnalyticEstimate oracle's
 *    service-time bound; still blocks when that job does not fit,
 *  - memory-aware best-fit backfill: unreserved backfill in arrival
 *    order — a job that cannot fit (devices or pool) is skipped, so
 *    small jobs slot around blocked heavyweights — switching to
 *    best-fit pool packing when the head is blocked by memory.
 */

#ifndef MCDLA_CLUSTER_SCHEDULER_HH
#define MCDLA_CLUSTER_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/pool_allocator.hh"
#include "sim/text.hh"

namespace mcdla
{

/** Scheduler policy selector. */
enum class SchedulerKind
{
    Fifo,
    Sjf,
    Backfill,
};

inline constexpr TokenRow<SchedulerKind> kSchedulerKindRows[] = {
    {SchedulerKind::Fifo, "fifo", "", nullptr,
     "strict arrival order; the head blocks the queue"},
    {SchedulerKind::Sjf, "sjf", "shortest-job-first", nullptr,
     "shortest estimated solo runtime first"},
    {SchedulerKind::Backfill, "backfill", "best-fit bestfit-backfill",
     nullptr, "FIFO head, but short jobs that fit jump the queue"},
};

/** --scheduler vocabulary and the --list-schedulers catalog. */
inline constexpr TokenTable<SchedulerKind> kSchedulerKinds{
    "scheduler", kSchedulerKindRows};

/** The scheduler's view of one waiting job. */
struct PendingJob
{
    /** Cluster job index (stable across queue reshuffles). */
    std::size_t jobIndex = 0;
    /** Device-nodes the job gangs. */
    int devices = 0;
    /** Backing-store bytes to carve from the shared pool. */
    std::uint64_t poolBytes = 0;
    /** AnalyticEstimate service-time bound (SJF's oracle), seconds. */
    double estServiceSec = 0.0;
    double arrivalSec = 0.0;
};

/** Job-admission policy over the waiting queue. */
class JobScheduler
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    virtual ~JobScheduler() = default;
    virtual const char *name() const = 0;

    /**
     * Position in @p queue (arrival-ordered) of the job to admit
     * given @p free_devices and the pool's current state, or npos to
     * admit nothing. The cluster calls this repeatedly until npos, so
     * a policy admits greedily one job at a time.
     */
    virtual std::size_t pick(const std::vector<PendingJob> &queue,
                             int free_devices,
                             const MemoryPoolAllocator &pool) const = 0;

    /**
     * The queued job this policy is stalled on when pick() returns
     * npos — the head for arrival-ordered policies, the shortest job
     * for SJF — or npos when the queue is empty. The cluster combines
     * it with memoryBlocked() to attribute memory-induced blocking in
     * the pool timeline.
     */
    virtual std::size_t
    blockedCandidate(const std::vector<PendingJob> &queue,
                     int free_devices,
                     const MemoryPoolAllocator &pool) const;

    /** Whether @p job has the devices but cannot place its block. */
    static bool memoryBlocked(const PendingJob &job, int free_devices,
                              const MemoryPoolAllocator &pool);

  protected:
    /** Whether @p job fits the free devices and the pool right now. */
    static bool fits(const PendingJob &job, int free_devices,
                     const MemoryPoolAllocator &pool);
};

/** Factory over the kind enum. */
std::unique_ptr<JobScheduler> makeScheduler(SchedulerKind kind);

} // namespace mcdla

#endif // MCDLA_CLUSTER_SCHEDULER_HH
