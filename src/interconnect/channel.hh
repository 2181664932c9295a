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
 * A channel's two events, xfer_done (the occupancy ends) and deliver
 * (one latency later), are owned events of the EventQueue: keys that
 * name the channel and the kind, with no callback behind them. The
 * handler of a finished transfer waits in a FIFO ring of deliveries
 * and each deliver event runs the head. That is exact because the
 * latency is fixed and an occupancy lasts at least one tick, so a
 * channel's deliveries fire in the order their transfers finished.
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

#include <algorithm>
#include <cstdint>
#include <string>
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
 *
 * EventOwner is the first base, so the queue dispatches the channel's
 * events without a this-adjusting thunk.
 */
class Channel : private EventOwner, public SimObject
{
  public:
    /**
     * Delivery callback: SBO, move-only. 24 inline bytes fit the
     * chunk-forwarding closures of flows and ring collectives exactly
     * (a state pointer, packed route/hop indices, a byte count; both
     * static_assert it). The channel keeps the handler — in its FIFO,
     * on the wire, then in the delivery ring — and calls it itself;
     * it never becomes an EventQueue::Callback. Larger captures fall
     * back to the heap.
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
    std::size_t queueTrains() const { return _queue.size(); }

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
    /** The channel's owned event kinds. */
    enum EventKind : unsigned
    {
        kXferDone,
        kDeliver,
    };

    void fireOwnedEvent(unsigned kind) override;
    void appendOwnedLabel(unsigned kind, std::string &out) const override;

    void startNext();
    /** The in-flight transfer's occupancy ended (xfer_done): deliver
        it, now or one latency later, and start the next. */
    void finishTransfer();
    void recordWindowBytes(Tick at, double bytes);

    /** A FIFO over a power-of-two ring that grows by doubling, so
        steady-state push/pop cycles recycle slots instead of paging
        deque blocks in and out of the allocator. */
    template <class T>
    class Ring
    {
      public:
        std::size_t size() const { return _count; }

        /** Entry @p i positions behind the head. Precondition:
            i < size(). */
        T &
        operator[](std::size_t i)
        {
            return _items[(_head + i) & (_items.size() - 1)];
        }

        const T &
        operator[](std::size_t i) const
        {
            return _items[(_head + i) & (_items.size() - 1)];
        }

        /** Append a slot for the caller to fill (it holds a
            moved-from or default value). */
        T &
        pushBack()
        {
            if (_count == _items.size()) {
                // Full (or never allocated): replay the ring in FIFO
                // order into storage twice the size.
                std::vector<T> grown(
                    std::max<std::size_t>(8, 2 * _items.size()));
                for (std::size_t i = 0; i < _count; ++i)
                    grown[i] = std::move((*this)[i]);
                _items.swap(grown);
                _head = 0;
            }
            return (*this)[_count++];
        }

        /** Drop the head (left moved-from or as is). Precondition:
            size() > 0. */
        void
        popFront()
        {
            _head = (_head + 1) & (_items.size() - 1);
            --_count;
        }

      private:
        std::vector<T> _items;
        std::size_t _head = 0;
        std::size_t _count = 0;
    };

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

    /** Append one transfer, merging it into the tail train when it
        matches. */
    void pushQueue(double bytes, Handler &&handler, bool waited,
                   std::uint8_t causal_ctx);
    /** Take one transfer off the head train. Precondition:
        _queueDepth > 0. */
    Pending popQueue();

    double _bandwidth;
    Tick _latency;
    EventQueue::OwnerId _owner;
    bool _busy = false;
    /** Waiting trains. */
    Ring<Pending> _queue;
    std::size_t _queueDepth = 0; ///< transfers over all trains

    // The transfer on the wire (at most one: the next starts at its
    // xfer_done).
    double _xferBytes = 0.0;
    Handler _xferHandler;
    /** Handlers of finished transfers, one per pending deliver
        event, in finishing (and so delivery) order. */
    Ring<Handler> _deliveries;

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
