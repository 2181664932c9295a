/**
 * @file
 * FaultHandler: DMA issue and completion signaling for page traffic.
 *
 * The handler issues page fills and writebacks as cudaMemcpyAsync
 * transfers through the device's VmemRuntime, feeds the device-0 vmem
 * activity tracker and the Chrome-tracing sink, and offers two levels
 * of service:
 *
 *  - the plan-driven level (writeback/fill) owns per-layer one-shot
 *    latches and enforces the write-before-read hazard by chaining a
 *    fill on the same group's (possibly not yet issued) writeback —
 *    this replays the original vDNN latch machinery exactly;
 *  - the low-level level (issueWritebackDma/issueFillDma) just moves
 *    the bytes and reports drain — demand-paged policies sequence
 *    transfers through the PageTable state machine instead.
 *
 * Both levels issue through transfer(), whose one completion closure
 * also completes the plan-driven latch. A null callback runs nothing.
 *
 * Trace spans keep the original labels for plan-driven traffic
 * ("offload"/"prefetch") and distinguish pressure-driven traffic
 * ("evict"/"fault").
 */

#ifndef MCDLA_VMEM_PAGING_FAULT_HANDLER_HH
#define MCDLA_VMEM_PAGING_FAULT_HANDLER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dnn/layer.hh"
#include "system/latch.hh"
#include "vmem/runtime.hh"

namespace mcdla
{

class Network;
class TraceSink;

/** Per-device DMA orchestration for the paging subsystem. */
class FaultHandler
{
  public:
    /**
     * @param runtime The device's Table I runtime.
     * @param remote_ptrs Backing-store allocation per page group.
     * @param wire_bytes Post-compression transfer size per page group.
     * @param group_layer Group id -> producing layer (empty = groups
     *                    are layer ids); trace-label decode only.
     * @param net Network (trace span labels).
     * @param tracker Figure 11 vmem activity tracker (device 0 only;
     *                nullptr elsewhere).
     */
    FaultHandler(VmemRuntime &runtime,
                 const std::map<LayerId, RemotePtr> &remote_ptrs,
                 const std::vector<double> &wire_bytes,
                 const std::vector<LayerId> &group_layer,
                 const Network &net, ActivityTracker *tracker);

    /**
     * Reset latches for a new iteration.
     *
     * @param trace Current tracing sink (may be nullptr).
     * @param precreate_writeback_latches Static-plan mode: create every
     *        layer's writeback latch up front so fills can chain on
     *        writebacks that have not been issued yet.
     * @param trace_track Track name for DMA spans on the "vmem"
     *        process (per-device under multi-tenancy).
     */
    void beginIteration(TraceSink *trace,
                        bool precreate_writeback_latches,
                        std::string trace_track = "dev0.dma");

    /// @name Plan-driven service (static-plan policy)
    /// @{

    /**
     * Issue the writeback DMA of @p layer, completing its pre-created
     * latch on drain. @p on_drain runs first.
     */
    void writeback(LayerId layer, EventQueue::Callback on_drain);

    /**
     * Request the fill of @p layer, chaining on its (possibly future)
     * writeback.
     *
     * @param demand Demand fault (trace label "fault") vs prefetch.
     * @param on_issue Runs immediately before the DMA is issued (after
     *        the writeback chain fires) — frame-state bookkeeping.
     * @param on_drain Runs when the DMA drains, before the latch fires.
     * @return true when a new fill was created; false when one already
     *         existed.
     */
    bool fill(LayerId layer, bool demand, EventQueue::Callback on_issue,
              EventQueue::Callback on_drain);

    /** The layer's fill latch; nullptr when no fill was requested. */
    Latch *fillLatch(LayerId layer) const;

    /// @}

    /// @name Low-level service (demand-paged policies)
    /// @{

    /** Issue a pressure-driven writeback DMA now. */
    void issueWritebackDma(LayerId layer, EventQueue::Callback on_drain);

    /** Issue a fill DMA now. */
    void issueFillDma(LayerId layer, bool demand,
                      EventQueue::Callback on_drain);

    /// @}

    /// @name DMA quiescence
    /// @{

    /** Whether no transfer of this handler is in flight. */
    bool dmaIdle() const { return _outstanding == 0; }

    /**
     * Run @p cb once every in-flight transfer has drained
     * (immediately when already idle). Multi-tenant sessions gate
     * device handback on this: destroying the pager with a DMA in
     * flight would dangle the completion callback.
     */
    void whenDmaIdle(EventQueue::Callback cb);

    /**
     * SimCheck: panic (SimCheck[fault-handler]) unless every DMA has
     * drained. Sessions assert this at end of iteration — a leaked
     * transfer there means a completion callback will dangle.
     *
     * @param when Context for the diagnostic (e.g. "end of iteration").
     */
    void simcheckExpectQuiescent(const char *when) const;

    /// @}

  private:
    double wireBytes(LayerId layer) const;

    /**
     * Issue the DMA of @p layer. On drain, run @p on_drain, then
     * complete @p latch if it is set and @p epoch is still current.
     */
    void transfer(LayerId layer, DmaDirection direction,
                  const char *label, Latch *latch, std::uint64_t epoch,
                  EventQueue::Callback on_drain);

    VmemRuntime &_runtime;
    const std::map<LayerId, RemotePtr> &_remotePtrs;
    const std::vector<double> &_wireBytes;
    const std::vector<LayerId> &_groupLayer;
    const Network &_net;
    ActivityTracker *_tracker;
    TraceSink *_trace = nullptr;
    std::string _traceTrack = "dev0.dma";
    /**
     * Issue tick of each group's last completed writeback. A later
     * fill of the group draws the write-before-read flow arrow from
     * this tick; groups never filled back (trailing writebacks,
     * forward-only runs) leave no dangling arrow because both flow
     * endpoints are emitted at fill time.
     */
    std::map<LayerId, Tick> _writebackIssued;

    /**
     * Per-group latches, pooled: flat vectors indexed by group id,
     * rearmed (Latch::reset()) every beginIteration instead of being
     * reallocated through per-iteration shared_ptr maps. The armed /
     * requested flags carry the old maps' presence semantics —
     * writeback() and fill() still panic on a group whose offload
     * latch was never pre-created, and fill() still reports an
     * already-requested fill by returning false.
     */
    std::vector<Latch> _writebackLatches;
    std::vector<char> _writebackArmed;
    std::vector<Latch> _fillLatches;
    std::vector<char> _fillRequested;
    /** Bumped every beginIteration; a drain completion from a previous
        epoch (possible only if quiescence was violated) must not
        complete the recycled latch of the current one. */
    std::uint64_t _epoch = 0;
    /** In-flight transfers (writebacks can trail the compute program). */
    std::uint64_t _outstanding = 0;
    std::vector<EventQueue::Callback> _idleWaiters;
};

} // namespace mcdla

#endif // MCDLA_VMEM_PAGING_FAULT_HANDLER_HH
