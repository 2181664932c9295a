/**
 * @file
 * Channel: a unidirectional bandwidth server with FIFO queueing.
 *
 * Every physical link direction, memory-node DIMM bus, PCIe lane bundle,
 * and host-socket DRAM interface is one Channel. Transfers submitted to a
 * channel serialize in submission order and occupy it for
 * bytes/bandwidth; delivery happens one propagation latency after the
 * occupancy ends (so back-to-back transfers pipeline through the wire
 * latency). Contention between flows that share a link — MC-DLA's
 * defining modelling requirement, where ring-collective traffic and
 * memory-virtualization DMAs ride the same NVLINK-class channels — falls
 * out of the queueing naturally.
 *
 * Every transfer is a Chunk walking a ChunkPath: a flow's routes or a
 * ring's stage routes, as one flat channel list. A channel's xfer_done
 * (the occupancy ends) is an owned event of the EventQueue. The
 * delivery one latency later is an event only when it has an effect at
 * its instant:
 *
 *  - At xfer_done the channel reserves the seq the delivery would have
 *    taken (EventQueue::reserveSeq()). It hands the chunk to the next
 *    channel as an *arrival* keyed (tick + latency, seq), or, after
 *    the last hop, counts it off its path.
 *  - A channel keeps its arrivals in key order and admits every due
 *    one (keyed at or before the executing event) into its FIFO,
 *    exactly as a submit would, before anything reads or changes that
 *    FIFO.
 *  - An idle channel keeps its earliest arrival *armed*: an owned
 *    `arrive` event at the arrival's own key, which starts the
 *    transfer there.
 *  - When a path's last chunk is counted off, its completion runs in
 *    an event at the latest last-hop delivery key.
 *
 * A delivery that is not an event would only have joined a busy FIFO
 * or counted down a path that still has chunks out. Neither schedules
 * anything, and its seq stays reserved, so every event that remains
 * keeps the (tick, seq) key it had when each delivery was an event:
 * results are the same, with about a third fewer events.
 *
 * A chunk submitted to (or admitted by) an idle channel starts at
 * once and never enters the FIFO, so every FIFO entry has waited. The
 * FIFO is run-length encoded. Ring collectives and flows queue a whole
 * block of identical chunks on a channel at once, so a submit whose
 * chunk and causal context equal the tail entry's just bumps that
 * entry's count, and the head hands out one transfer at a time. Only
 * adjacent submits merge, so FIFO order — and with it every event — is
 * exactly what one entry per transfer would give; the queue just
 * touches a few cache lines instead of one per waiting chunk.
 *
 * The per-transfer records (Chunk, Pending, Arrival) are written in
 * place, field by field, and read back the same way: copying one
 * through a stack temporary right after writing it stalls the load on
 * store forwarding (about a sixth of host time on perfbench's mp_grid).
 */

#ifndef MCDLA_INTERCONNECT_CHANNEL_HH
#define MCDLA_INTERCONNECT_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/sim_object.hh"

namespace mcdla
{

class Channel;
enum class WaitKind : std::uint8_t; // sim/causal.hh

/**
 * The walk shared by a family of chunks (one flow, or one ring's share
 * of a collective) and that family's completion.
 *
 * The issuer fills channels, submits each chunk to its first channel
 * and sets outstanding. The channels move every chunk along and count
 * it off after its last hop. Once all are counted off, complete() runs
 * in an event at the latest last-hop delivery key, the instant the
 * family's last delivery lands.
 */
class ChunkPath
{
  public:
    /** The channels in walk order. A chunk moves from position p to
        p + 1, wrapping to 0 past the end (a ring). */
    std::vector<Channel *> channels;

    /** Chunks not yet counted off. */
    std::uint64_t outstanding = 0;

    /** Every chunk has been delivered. The path may be reused (or
        destroyed) from here on. */
    virtual void complete() = 0;

  protected:
    ~ChunkPath() = default;

  private:
    friend class Channel;

    /** The latest last-hop delivery counted off so far: its key, the
        channel it leaves and its causal origin. */
    struct LastDelivery
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        const Channel *from = nullptr;
        std::int64_t causalParent = -1;
        std::uint8_t causalCtx = 0;
    };
    LastDelivery _last;
};

/**
 * One transfer: at channel @c pos of its path, with @c left channels
 * still to go after that one. Equal chunks on one channel merge into a
 * FIFO train.
 */
struct Chunk
{
    ChunkPath *path = nullptr;
    std::uint32_t pos = 0;
    std::uint32_t left = 0;
    double bytes = 0.0;

    bool
    operator==(const Chunk &other) const
    {
        return path == other.path && pos == other.pos
               && left == other.left && bytes == other.bytes;
    }
};

// Every hop copies and compares Chunks; keep them three words.
static_assert(sizeof(Chunk) == 24, "Chunk is a hot per-transfer record");
static_assert(std::is_trivially_copyable_v<Chunk>,
              "Chunk moves by plain copies");

/**
 * A unidirectional, FIFO, fixed-bandwidth communication resource.
 *
 * Waiting transfers are stored as runs ("trains") of equal chunks.
 * queueDepth(), peakQueueDepth() and transfers() count transfers, not
 * FIFO entries.
 *
 * EventOwner is the first base, so the queue dispatches the channel's
 * events without a this-adjusting thunk.
 */
class Channel : private EventOwner, public SimObject
{
  public:
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
     * Enqueue @p chunk, which must sit at this channel
     * (chunk.path->channels[chunk.pos] == this) and have positive
     * bytes. An idle channel starts it at once; a busy one queues it,
     * merging it into the FIFO's tail entry when the chunk and the
     * causal context match. When it has crossed its last channel it is
     * counted off its path.
     */
    void submit(const Chunk &chunk);

    /** Payload bytes started since construction. */
    double bytesTransferred() const { return _bytesTransferred; }

    /** Transfers started since construction. */
    std::uint64_t transfers() const { return _transfers; }

    /** Ticks the channel was occupied since construction. */
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

    /** Transfers currently waiting (excludes the in-flight one),
        due arrivals included. */
    std::size_t
    queueDepth() const
    {
        admitArrivals();
        return _queueDepth;
    }

    /** FIFO entries behind the head: runs of identical transfers,
        so at most queueDepth(). */
    std::size_t
    queueTrains() const
    {
        admitArrivals();
        return _queue.size();
    }

    /** Deepest backlog observed since construction (occupancy
        pressure: how many transfers were stacked behind the wire). */
    std::size_t
    peakQueueDepth() const
    {
        admitArrivals();
        return _peakQueueDepth;
    }

    /**
     * Enable peak-bandwidth tracking with the given averaging window
     * (used by host-socket channels for the Figure 12 "max" series).
     */
    void enablePeakTracking(Tick window);

    /** Peak windowed bandwidth observed since construction
        (bytes/sec); 0 if not tracked. */
    double peakBandwidth() const;

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
        /** An armed arrival's delivery instant (file comment). */
        kArrive,
    };

    void fireOwnedEvent(unsigned kind) override;
    void appendOwnedLabel(unsigned kind, std::uint64_t seq,
                          std::string &out) const override;

    /** Take @p chunk as a submit does: ledger, then start it on an
        idle channel, or queue it (train merge, peak depth) on a busy
        one. */
    void enqueue(const Chunk &chunk, std::uint8_t causal_ctx);
    /** Put @p chunk on the wire: occupancy, stats and its xfer_done,
        tagged @p wait in the causal context it was submitted under. */
    void start(const Chunk &chunk, WaitKind wait, std::uint8_t causal_ctx);
    /** Start the FIFO's head, or go idle and arm the next arrival. */
    void startNext();
    /** The in-flight transfer's occupancy ended (xfer_done): deliver
        it, now or one latency later, and start the next. */
    void finishTransfer();
    /** Hand @p chunk, just off this channel, to its next channel or
        count it off its path. */
    void deliver(const Chunk &chunk);
    /** Count a chunk delivered at (@p when, @p seq) off @p path, and
        run or schedule the path's completion after its last one. */
    void countOff(ChunkPath &path, Tick when, std::uint64_t seq,
                  std::int64_t causal_parent, std::uint8_t causal_ctx);
    /** Take the chunk (@p path, @p pos, @p left, @p bytes), delivered
        to this channel at (@p when, @p seq), into the arrivals; arm it
        if it leads on an idle channel. */
    void arrive(Tick when, std::uint64_t seq, ChunkPath *path,
                std::uint32_t pos, std::uint32_t left, double bytes,
                std::int64_t causal_parent, std::uint8_t causal_ctx);
    /** Move every due arrival into the FIFO. Logically const: it only
        brings the FIFO up to the executing event, so the const
        accessors call it too. */
    void
    admitArrivals() const
    {
        if (_arrivals.size() != 0)
            const_cast<Channel *>(this)->admitDue();
    }
    void admitDue();
    void recordWindowBytes(Tick at, double bytes);

    /** The channel a chunk at @p chunk.pos came from. */
    static const Channel &upstream(const Chunk &chunk);

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
            return _items[(_head + i) & _mask];
        }

        const T &
        operator[](std::size_t i) const
        {
            return _items[(_head + i) & _mask];
        }

        /** Append a slot for the caller to fill (it holds a
            moved-from or default value). */
        T &
        pushBack()
        {
            if (_count == _mask + 1)
                grow();
            return (*this)[_count++];
        }

        /** Drop the head (left moved-from or as is). Precondition:
            size() > 0. */
        void
        popFront()
        {
            _head = (_head + 1) & _mask;
            --_count;
        }

      private:
        /** Full (or never allocated): replay the ring in FIFO order
            into storage twice the size. */
        void
        grow()
        {
            std::vector<T> grown(
                std::max<std::size_t>(8, 2 * _items.size()));
            for (std::size_t i = 0; i < _count; ++i)
                grown[i] = std::move((*this)[i]);
            _items.swap(grown);
            _mask = _items.size() - 1;
            _head = 0;
        }

        std::vector<T> _items;
        /** _items.size() - 1: all ones before the first growth, so
            _count == _mask + 1 (wrapping to 0) reads "full" for an
            unallocated ring too, without dividing by sizeof(T). */
        std::size_t _mask = SIZE_MAX;
        std::size_t _head = 0;
        std::size_t _count = 0;
    };

    /** One FIFO entry: a train of @c count identical transfers, each
        queued behind a busy channel (a chan_queue wait when it
        starts). */
    struct Pending
    {
        Chunk chunk{};
        std::uint32_t count = 1;
        /** CausalCtx at submit time (raw form), so a DMA transfer
            queued behind collective traffic keeps its own subsystem
            attribution when it finally starts. */
        std::uint8_t causalCtx = 0;
    };
    static_assert(sizeof(Pending) <= 32, "Pending is a hot FIFO record");

    /** A chunk delivered to this channel but not yet admitted. */
    struct Arrival
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Chunk chunk{};
        /** The causal node of the upstream xfer_done and its context
            (CausalRecorder::origin()). */
        std::int64_t causalParent = -1;
        std::uint8_t causalCtx = 0;
        /** An arrive event is scheduled at (when, seq). */
        bool armed = false;
    };
    static_assert(sizeof(Arrival) <= 56, "Arrival is a hot record");

    /** Append one transfer, merging it into the tail train when it
        matches. */
    void pushQueue(const Chunk &chunk, std::uint8_t causal_ctx);
    /** Schedule @p arrival's arrive event at its key. */
    void arm(Arrival &arrival);

    double _bandwidth;
    Tick _latency;
    EventQueue::OwnerId _owner;
    bool _busy = false;
    /** Waiting trains. */
    Ring<Pending> _queue;
    std::size_t _queueDepth = 0; ///< transfers over all trains
    /** The transfer on the wire (at most one: the next starts at its
        xfer_done). */
    Chunk _xfer{};
    /** Delivered chunks not yet admitted, in (when, seq) order. */
    Ring<Arrival> _arrivals;
    /** Occupancy of the last chunk size started: most chunks on a
        channel are one size, so transferTicks() runs on a change. */
    double _occupancyBytes = 0.0;
    Tick _occupancy = 0;

    // Lifetime totals.
    double _bytesTransferred = 0.0;
    std::uint64_t _transfers = 0;
    Tick _busyTicks = 0;
    std::size_t _peakQueueDepth = 0;

    // Conservation ledger: enqueued = delivered + wire + queued.
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
