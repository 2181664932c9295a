/**
 * @file
 * Scheduler policy implementations.
 */

#include "cluster/scheduler.hh"

#include "sim/logging.hh"

namespace mcdla
{

bool
JobScheduler::fits(const PendingJob &job, int free_devices,
                   const MemoryPoolAllocator &pool)
{
    if (job.devices > free_devices)
        return false;
    return job.poolBytes == 0 || pool.canAllocate(job.poolBytes);
}

bool
JobScheduler::memoryBlocked(const PendingJob &job, int free_devices,
                            const MemoryPoolAllocator &pool)
{
    return job.devices <= free_devices && job.poolBytes > 0
        && !pool.canAllocate(job.poolBytes);
}

std::size_t
JobScheduler::blockedCandidate(const std::vector<PendingJob> &queue,
                               int free_devices,
                               const MemoryPoolAllocator &pool) const
{
    (void)free_devices;
    (void)pool;
    return queue.empty() ? npos : 0;
}

namespace
{

/** Strict arrival order; the head blocks the queue when it cannot
    start (the classic gang-scheduling baseline). */
class FifoScheduler : public JobScheduler
{
  public:
    const char *name() const override { return "fifo"; }

    std::size_t
    pick(const std::vector<PendingJob> &queue, int free_devices,
         const MemoryPoolAllocator &pool) const override
    {
        if (queue.empty() || !fits(queue.front(), free_devices, pool))
            return npos;
        return 0;
    }
};

/** Shortest job first by the analytic service-time oracle; like FIFO
    it does not bypass its choice when it cannot start. */
class SjfScheduler : public JobScheduler
{
  public:
    const char *name() const override { return "sjf"; }

    std::size_t
    pick(const std::vector<PendingJob> &queue, int free_devices,
         const MemoryPoolAllocator &pool) const override
    {
        const std::size_t best =
            blockedCandidate(queue, free_devices, pool);
        if (best == npos || !fits(queue[best], free_devices, pool))
            return npos;
        return best;
    }

    /** SJF stalls on its shortest job, not the arrival-order head. */
    std::size_t
    blockedCandidate(const std::vector<PendingJob> &queue,
                     int free_devices,
                     const MemoryPoolAllocator &pool) const override
    {
        (void)free_devices;
        (void)pool;
        std::size_t best = npos;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (best == npos
                || queue[i].estServiceSec
                    < queue[best].estServiceSec)
                best = i;
        }
        return best;
    }
};

/** Memory-aware best-fit backfill: jobs start in arrival order, but a
    job that cannot fit is skipped instead of blocking the queue.
    This is *unreserved* (aggressive) backfill over devices and pool —
    no reservation protects the blocked head, so a steady stream of
    small jobs can delay a whole-machine job indefinitely; the mean-
    JCT win it buys is exactly what abl_cluster measures against FIFO.
    When the head is blocked by memory specifically, the policy
    switches to best-fit packing — the fitting job whose demand best
    fills the largest free block — to drain fragmentation and reopen
    room for the head. */
class BackfillScheduler : public JobScheduler
{
  public:
    const char *name() const override { return "backfill"; }

    std::size_t
    pick(const std::vector<PendingJob> &queue, int free_devices,
         const MemoryPoolAllocator &pool) const override
    {
        if (queue.empty())
            return npos;

        if (memoryBlocked(queue.front(), free_devices, pool)) {
            const std::uint64_t largest = pool.largestFreeBlock();
            std::size_t best = npos;
            std::uint64_t best_leftover = 0;
            for (std::size_t i = 0; i < queue.size(); ++i) {
                if (!fits(queue[i], free_devices, pool))
                    continue;
                const std::uint64_t leftover = largest
                    - std::min(largest, queue[i].poolBytes);
                if (best == npos || leftover < best_leftover) {
                    best = i;
                    best_leftover = leftover;
                }
            }
            return best;
        }

        for (std::size_t i = 0; i < queue.size(); ++i)
            if (fits(queue[i], free_devices, pool))
                return i;
        return npos;
    }
};

} // anonymous namespace

std::unique_ptr<JobScheduler>
makeScheduler(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return std::make_unique<FifoScheduler>();
      case SchedulerKind::Sjf:
        return std::make_unique<SjfScheduler>();
      case SchedulerKind::Backfill:
        return std::make_unique<BackfillScheduler>();
    }
    panic("unknown scheduler kind %d", static_cast<int>(kind));
}

} // namespace mcdla
