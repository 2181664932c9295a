/**
 * @file
 * DevicePager: one device's paged-memory manager.
 *
 * Composes the PageTable (residency + HBM frame accounting), the
 * FaultHandler (DMA issue, stall latches, write-before-read hazard),
 * and the configured prefetch/eviction policies into the single
 * object TrainingSession talks to:
 *
 *   opRetired(op)        — stash production, plan writebacks, releases
 *   frontierAdvanced(op) — lookahead prefetching
 *   demand(op)           — readiness gate for the op's stash reads;
 *                          returns the latch to stall on, or nullptr
 *
 * Under the static-plan policy the pager replays the original vDNN
 * latch machinery event-for-event (capacity-blind, unconditional
 * offload + lookahead prefetch). Under demand-paged policies
 * (on-demand, history) residency is driven by faults and capacity
 * pressure: fills reserve HBM frames, evictions write dirty groups
 * back (clean ones drop for free), and compute stalls on page faults.
 */

#ifndef MCDLA_VMEM_PAGING_PAGER_HH
#define MCDLA_VMEM_PAGING_PAGER_HH

#include <deque>
#include <memory>
#include <set>
#include <string>

#include "sim/stats.hh"
#include "vmem/paging/eviction_policy.hh"
#include "vmem/paging/fault_handler.hh"
#include "vmem/paging/page_table.hh"
#include "vmem/paging/prefetch_policy.hh"

namespace mcdla
{

/** Device-0 paging counters reported with each IterationResult. */
struct PagingCounters
{
    std::uint64_t demandHits = 0;   ///< Reads that found the stash ready.
    std::uint64_t demandMisses = 0; ///< Reads that had to stall.
    std::uint64_t fills = 0;        ///< Fill DMAs requested.
    std::uint64_t demandFills = 0;  ///< Fills requested by a fault.
    std::uint64_t writebacks = 0;   ///< Writeback DMAs issued.
    std::uint64_t cleanDrops = 0;   ///< Evictions with a valid backing copy.
    std::uint64_t earlyEvictions = 0; ///< Evictions before the last fwd use.
    double stallSec = 0.0;          ///< Compute stall waiting on pages.
    double bytesFilled = 0.0;       ///< Wire bytes filled in.
    double bytesWrittenBack = 0.0;  ///< Wire bytes written back.
    std::uint64_t peakResidentBytes = 0; ///< Peak stash HBM occupancy.

    /** Fraction of stash reads that never stalled. */
    double
    hitRate() const
    {
        const double total =
            static_cast<double>(demandHits + demandMisses);
        return total > 0.0 ? static_cast<double>(demandHits) / total
                           : 1.0;
    }
};

/** One device's paged device-memory manager. */
class DevicePager
{
  public:
    /** Wiring from the owning TrainingSession. */
    struct Wiring
    {
        VmemRuntime *runtime = nullptr;
        /** Backing-store allocation per offloaded layer. */
        const std::map<LayerId, RemotePtr> *remotePtrs = nullptr;
        const Network *net = nullptr;
        const PagingSchedule *schedule = nullptr;
        /** Post-compression transfer bytes, indexed by page group. */
        std::vector<double> wireBytes;
        /** HBM frame bytes (uncompressed), indexed by page group. */
        std::vector<std::uint64_t> frameBytes;
        /**
         * Page-group id -> producing layer, for trace labels. Empty
         * means groups are layer ids (dp/mp); pipeline sessions key
         * groups by (layer, microbatch) and supply the decode here.
         */
        std::vector<LayerId> groupLayer;
        /** HBM left for stash frames after weights/working buffers. */
        std::uint64_t frameCapacity = 0;
        PagingConfig config;
        /** Figure 11 vmem tracker (device 0 only; nullptr elsewhere). */
        ActivityTracker *tracker = nullptr;
    };

    DevicePager(std::string name, Wiring wiring);

    /** Reset per-iteration state; @p trace is the current sink. */
    void beginIteration(TraceSink *trace);

    /** Op @p op retired: produce stashes, run policy, release dead. */
    void opRetired(std::size_t op);

    /** The device will issue op @p op next. */
    void frontierAdvanced(std::size_t op);

    /**
     * Readiness gate for op @p op's stash reads. Issues whatever fills
     * the policy wants and returns the first latch the compute stream
     * must wait on, or nullptr when every read is ready.
     */
    Latch *demand(std::size_t op);

    /** Attribute a compute stall of @p ticks to paging. */
    void noteStall(Tick ticks);

    StatSet &stats() { return _stats; }
    const PageTable &pageTable() const { return _table; }
    const PagingConfig &config() const { return _cfg; }
    const PagingSchedule &schedule() const { return *_schedule; }
    PrefetchPolicy &prefetchPolicy() { return *_policy; }

    /** Snapshot of the counters (for IterationResult). */
    PagingCounters counters() const;

    /** Whether no DMA of this pager is in flight. */
    bool dmaIdle() const { return _fault.dmaIdle(); }

    /** Run @p cb when the last in-flight DMA drains (or immediately). */
    void
    whenDmaIdle(EventQueue::Callback cb)
    {
        _fault.whenDmaIdle(std::move(cb));
    }

    /** SimCheck: panic unless every DMA of this pager has drained. */
    void
    simcheckExpectQuiescent(const char *when) const
    {
        _fault.simcheckExpectQuiescent(when);
    }

    /// @name Policy-facing operations
    /// @{
    /** Static plan: unconditionally write @p layer back now. */
    void planWriteback(LayerId layer);
    /**
     * Request a fill of @p layer (no-op when already ready or in
     * flight). @p demand marks a fault (vs a prefetch).
     */
    void requestFill(LayerId layer, bool demand);
    /// @}

  private:
    Tick now() const;
    void evictOne(LayerId victim);
    void evictUntilFits(std::uint64_t bytes);
    /** Issue queued demand-paged fills as frames become available. */
    void pumpFills();
    void releaseRead(LayerId layer);

    std::string _name;
    VmemRuntime *_runtime;
    const PagingSchedule *_schedule;
    std::vector<double> _wireBytes;
    std::vector<LayerId> _groupLayer;
    PagingConfig _cfg;
    PageTable _table;
    FaultHandler _fault;
    std::unique_ptr<PrefetchPolicy> _policy;
    std::unique_ptr<EvictionPolicy> _evict;
    StatSet _stats;

    std::size_t _frontier = 0;
    /** (op << 32 | layer) pairs whose hit/miss was already counted. */
    std::set<std::uint64_t> _accounted;
    /** Demand-paged fills waiting for HBM frames or a writeback. */
    std::deque<std::pair<LayerId, bool>> _pendingFills;
    std::map<LayerId, std::shared_ptr<Latch>> _demandFillLatch;
    bool _pumping = false;
};

} // namespace mcdla

#endif // MCDLA_VMEM_PAGING_PAGER_HH
