/**
 * @file
 * Channel: a unidirectional bandwidth server with FIFO queueing.
 *
 * Every physical link direction, memory-node DIMM bus, PCIe lane bundle,
 * and host-socket DRAM interface is one Channel. Transfers submitted to a
 * channel serialize in submission order and occupy it for
 * bytes/bandwidth; delivery fires one propagation latency after the
 * occupancy ends (so back-to-back transfers pipeline through the wire
 * latency). Contention between flows that share a link — MC-DLA's
 * defining modelling requirement, where ring-collective traffic and
 * memory-virtualization DMAs ride the same NVLINK-class channels — falls
 * out of the queueing naturally.
 *
 * The FIFO is run-length encoded. Ring collectives and flows queue a
 * whole block of identical chunks on a channel at once, so a submit
 * whose size, wait kind, causal context and delivery closure all equal
 * the tail entry's just bumps that entry's count, and the head hands
 * out one transfer (a copy of its closure) at a time. Only adjacent
 * submits merge, so FIFO order — and with it every event — is exactly
 * what one entry per transfer would give; the queue just touches a
 * few cache lines instead of one per waiting chunk.
 */

#ifndef MCDLA_INTERCONNECT_CHANNEL_HH
#define MCDLA_INTERCONNECT_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/sim_object.hh"

namespace mcdla
{

/**
 * A unidirectional, FIFO, fixed-bandwidth communication resource.
 *
 * Waiting transfers are stored as runs ("trains") of identical
 * transfers: a Handler opts in to merging by holding a comparable
 * target (InlineFunction::comparable(), e.g. the flow and ring-
 * collective chunk hops). Lambdas never merge. queueDepth(),
 * peakQueueDepth() and the stats count transfers, not FIFO entries.
 */
class Channel : public SimObject
{
  public:
    /**
     * Delivery callback: SBO, move-only. 24 inline bytes fit the
     * chunk-forwarding closures of flows and ring collectives exactly
     * (a state pointer, packed route/hop indices, a byte count; both
     * static_assert it). The in-flight transfer's handler waits in the
     * channel, so the xfer_done event captures only the channel, and
     * the delivery event adopts the handler's target as its
     * EventQueue::Callback (no wrapper). Larger captures fall back to
     * the heap.
     */
    using Handler = InlineFunction<24>;

    /**
     * @param eq Driving event queue.
     * @param name Instance name.
     * @param bandwidth Bytes per second; must be positive.
     * @param latency Propagation delay added after occupancy.
     */
    Channel(EventQueue &eq, std::string name, double bandwidth,
            Tick latency);

    double bandwidth() const { return _bandwidth; }
    Tick latency() const { return _latency; }

    /**
     * Enqueue a transfer. Merges into the FIFO's tail entry when
     * @p bytes, the wait kind, the causal context and an equal copy of
     * the tail's comparable handler all match.
     *
     * @param bytes Payload size; must be positive.
     * @param on_delivered Invoked when the payload fully arrives at the
     *                     far end (occupancy end + latency).
     */
    void submit(double bytes, Handler on_delivered);

    /** Total payload bytes delivered so far. */
    double bytesTransferred() const { return _bytesTransferred; }

    /** Total ticks the channel was occupied. */
    Tick busyTicks() const { return _busyTicks; }

    /** Occupied fraction of [0, horizon]. */
    double
    utilization(Tick horizon) const
    {
        return horizon == 0
            ? 0.0
            : static_cast<double>(_busyTicks)
                / static_cast<double>(horizon);
    }

    /** Transfers currently waiting (excludes the in-flight one). */
    std::size_t queueDepth() const { return _queueDepth; }

    /** FIFO entries behind the head: runs of identical transfers,
        so at most queueDepth(). */
    std::size_t queueTrains() const { return _queueEntries; }

    /** Deepest backlog observed since the last stats reset (occupancy
        pressure: how many transfers were stacked behind the wire). */
    std::size_t peakQueueDepth() const { return _peakQueueDepth; }

    /**
     * Enable peak-bandwidth tracking with the given averaging window
     * (used by host-socket channels for the Figure 12 "max" series).
     */
    void enablePeakTracking(Tick window);

    /** Peak windowed bandwidth observed (bytes/sec); 0 if not tracked. */
    double peakBandwidth() const;

    /** Clear statistics (not queued work). */
    void resetStats() override;

    /**
     * SimCheck: byte conservation. Everything ever submitted is either
     * delivered, on the wire, or still queued — at all times:
     *   enqueued == delivered + in-flight + queued.
     * Panics (SimCheck[channel]) on violation. Runs automatically at
     * every submit and delivery while SimCheck is enabled.
     */
    void simcheckVerifyConservation() const;

  private:
    void startNext();
    /** The in-flight transfer's occupancy ended (xfer_done): deliver
        it, now or one latency later, and start the next. */
    void finishTransfer();
    void recordWindowBytes(Tick at, double bytes);

    /** One FIFO entry: a train of @c count identical transfers. */
    struct Pending
    {
        Handler onDelivered;
        double bytes = 0.0;
        std::uint32_t count = 1;
        /** Queued behind a busy channel (vs started immediately) —
            recorded as a chan_queue rather than chan_xfer wait. */
        bool waited = false;
        /** CausalCtx at submit time (raw form), so a DMA transfer
            queued behind collective traffic keeps its own subsystem
            attribution when it finally starts. */
        std::uint8_t causalCtx = 0;
    };

    /** FIFO entry @p i positions behind the head. Precondition:
        i < _queueEntries. */
    Pending &
    queuedAt(std::size_t i)
    {
        return _queue[(_queueHead + i) & (_queue.size() - 1)];
    }

    const Pending &
    queuedAt(std::size_t i) const
    {
        return _queue[(_queueHead + i) & (_queue.size() - 1)];
    }

    /** Append one transfer, merging it into the tail train when it
        matches. */
    void pushQueue(double bytes, Handler &&handler, bool waited,
                   std::uint8_t causal_ctx);
    /** Take one transfer off the head train. Precondition:
        _queueDepth > 0. */
    Pending popQueue();

    double _bandwidth;
    Tick _latency;
    bool _busy = false;
    /** Waiting trains: a power-of-two ring over a flat vector, so
        steady-state submit/deliver cycles recycle slots instead of
        paging deque blocks in and out of the allocator. */
    std::vector<Pending> _queue;
    std::size_t _queueHead = 0;
    std::size_t _queueEntries = 0; ///< trains in the ring
    std::size_t _queueDepth = 0;   ///< transfers over all trains

    // The transfer on the wire (at most one: the next starts at its
    // xfer_done).
    double _xferBytes = 0.0;
    Handler _xferHandler;

    // Resettable totals; the "bytes" and "transfers" stats read them.
    double _bytesTransferred = 0.0;
    std::uint64_t _transfers = 0;
    Tick _busyTicks = 0;
    std::size_t _peakQueueDepth = 0;

    // Conservation ledger (lifetime totals, independent of the
    // resettable stats above): enqueued = delivered + wire + queued.
    double _conservedEnqueued = 0.0;
    double _conservedDelivered = 0.0;
    double _conservedWire = 0.0;
    double _conservedQueued = 0.0;

    // Peak tracking: bytes accumulated per fixed window.
    Tick _peakWindow = 0;
    Tick _currentWindowStart = 0;
    double _currentWindowBytes = 0.0;
    double _maxWindowBytes = 0.0;
};

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_CHANNEL_HH
