/**
 * @file
 * Channel implementation.
 */

#include "interconnect/channel.hh"

#include <cassert>
#include <cmath>
#include <optional>
#include <utility>

#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"

namespace mcdla
{

Channel::Channel(EventQueue &eq, std::string name, double bandwidth,
                 Tick latency)
    : SimObject(eq, std::move(name)), _bandwidth(bandwidth),
      _latency(latency), _owner(eq.registerOwner(*this))
{
    if (bandwidth <= 0.0)
        fatal("channel '%s' requires positive bandwidth",
              this->name().c_str());
}

void
Channel::pushQueue(const Chunk &chunk, std::uint8_t causal_ctx)
{
    ++_queueDepth;
    if (_queue.size() != 0) {
        Pending &tail = _queue[_queue.size() - 1];
        if (tail.chunk == chunk && tail.causalCtx == causal_ctx
            && tail.count != UINT32_MAX) {
            ++tail.count;
            return;
        }
    }
    Pending &slot = _queue.pushBack();
    slot.chunk = chunk;
    slot.count = 1;
    slot.causalCtx = causal_ctx;
}

void
Channel::submit(const Chunk &chunk)
{
    if (chunk.bytes <= 0.0)
        panic("channel '%s': non-positive transfer size", name().c_str());
    assert(chunk.path->channels[chunk.pos] == this);
    admitArrivals();
    std::uint8_t causal_ctx = 0;
    if (const CausalRecorder *rec = eventQueue().causalRecorder())
        causal_ctx = rec->currentCtxRaw();
    enqueue(chunk, causal_ctx);
}

void
Channel::enqueue(const Chunk &chunk, std::uint8_t causal_ctx)
{
    _conservedEnqueued += chunk.bytes;
    if (_busy) {
        _conservedQueued += chunk.bytes;
        pushQueue(chunk, causal_ctx);
        _peakQueueDepth = std::max(_peakQueueDepth, _queueDepth);
    } else {
        // An idle channel's FIFO is empty: start at once. Only genuine
        // waiters count, so an uncontended channel reports a peak
        // depth of 0.
        start(chunk, WaitKind::ChanXfer, causal_ctx);
    }
    if (simcheck::enabled())
        simcheckVerifyConservation();
}

void
Channel::startNext()
{
    if (_queueDepth == 0) {
        _busy = false;
        // Idle: the next arrival must start the channel at its own
        // key.
        if (_arrivals.size() != 0 && !_arrivals[0].armed)
            arm(_arrivals[0]);
        return;
    }
    // Take one transfer off the head train.
    --_queueDepth;
    Pending &head = _queue[0];
    const Chunk chunk = head.chunk;
    const std::uint8_t causal_ctx = head.causalCtx;
    if (--head.count == 0)
        _queue.popFront();
    _conservedQueued -= chunk.bytes;
    start(chunk, WaitKind::ChanQueue, causal_ctx);
}

void
Channel::start(const Chunk &chunk, WaitKind wait, std::uint8_t causal_ctx)
{
    _busy = true;
    const double bytes = chunk.bytes;
    _conservedWire += bytes;
    if (bytes != _occupancyBytes) {
        _occupancyBytes = bytes;
        _occupancy = transferTicks(bytes, _bandwidth);
    }
    _busyTicks += _occupancy;
    _bytesTransferred += bytes;
    ++_transfers;

    _xfer = chunk;
    // Causal tagging: the occupancy edge is chan_xfer (idle start) or
    // chan_queue (started after queueing), in the subsystem context
    // the transfer was submitted under.
    CausalScope occupancy_scope(eventQueue().causalRecorder(), wait,
                                CausalRecorder::ctxFromRaw(causal_ctx),
                                name());
    eventQueue().scheduleOwned(now() + _occupancy, _owner, kXferDone);
}

void
Channel::finishTransfer()
{
    admitArrivals();
    const Chunk chunk = _xfer;
    _conservedWire -= chunk.bytes;
    _conservedDelivered += chunk.bytes;
    if (simcheck::enabled())
        simcheckVerifyConservation();
    recordWindowBytes(now(), chunk.bytes);
    // Wire latency delays delivery but not the next transfer.
    deliver(chunk);
    startNext();
}

void
Channel::deliver(const Chunk &chunk)
{
    EventQueue &eq = eventQueue();
    CausalRecorder::Origin origin;
    if (const CausalRecorder *rec = eq.causalRecorder())
        origin = rec->origin(now());
    // Without latency the delivery is this xfer_done itself; otherwise
    // it is keyed by the seq its own event would have taken.
    const Tick when = now() + _latency;
    const std::uint64_t seq =
        _latency == 0 ? eq.currentSeq() : eq.reserveSeq();
    if (chunk.left == 0) {
        countOff(*chunk.path, when, seq, origin.parent, origin.ctx);
        return;
    }
    const std::vector<Channel *> &channels = chunk.path->channels;
    const std::uint32_t pos =
        chunk.pos + 1 == channels.size() ? 0 : chunk.pos + 1;
    if (_latency == 0)
        channels[pos]->submit(
            Chunk{chunk.path, pos, chunk.left - 1, chunk.bytes});
    else
        channels[pos]->arrive(when, seq, chunk.path, pos, chunk.left - 1,
                              chunk.bytes, origin.parent, origin.ctx);
}

void
Channel::countOff(ChunkPath &path, Tick when, std::uint64_t seq,
                  std::int64_t causal_parent, std::uint8_t causal_ctx)
{
    ChunkPath::LastDelivery &last = path._last;
    if (last.from == nullptr || when > last.when
        || (when == last.when && seq > last.seq))
        last = {when, seq, this, causal_parent, causal_ctx};
    if (--path.outstanding != 0)
        return;
    // The path is done with; it may be reused from complete() on.
    const ChunkPath::LastDelivery latest = last;
    last = {};
    EventQueue &eq = eventQueue();
    if (latest.when == now() && latest.seq == eq.currentSeq()) {
        path.complete();
        return;
    }
    // Complete where the latest delivery lands: it is not always the
    // last chunk counted off, when the final hops differ in latency.
    const Channel &from = *latest.from;
    CausalScope wire_scope(
        eq.causalRecorder(),
        CausalRecorder::Origin{latest.causalParent,
                               latest.when - from._latency,
                               latest.causalCtx},
        WaitKind::Wire, from.name());
    eq.scheduleAt(latest.when, latest.seq,
                  [&path] { path.complete(); },
                  EventLabel::dotted(from.name(), "deliver"));
}

void
Channel::arrive(Tick when, std::uint64_t seq, ChunkPath *path,
                std::uint32_t pos, std::uint32_t left, double bytes,
                std::int64_t causal_parent, std::uint8_t causal_ctx)
{
    // Keep key order: an append, unless upstreams of different
    // latency interleave.
    std::size_t at = _arrivals.size();
    _arrivals.pushBack();
    while (at > 0
           && (_arrivals[at - 1].when > when
               || (_arrivals[at - 1].when == when
                   && _arrivals[at - 1].seq > seq))) {
        _arrivals[at] = _arrivals[at - 1];
        --at;
    }
    Arrival &arrival = _arrivals[at];
    arrival.when = when;
    arrival.seq = seq;
    arrival.chunk.path = path;
    arrival.chunk.pos = pos;
    arrival.chunk.left = left;
    arrival.chunk.bytes = bytes;
    arrival.causalParent = causal_parent;
    arrival.causalCtx = causal_ctx;
    arrival.armed = false;
    if (at == 0 && !_busy)
        arm(arrival);
}

void
Channel::arm(Arrival &arrival)
{
    arrival.armed = true;
    std::optional<CausalScope> wire_scope;
    if (CausalRecorder *rec = eventQueue().causalRecorder()) {
        const Channel &from = upstream(arrival.chunk);
        wire_scope.emplace(
            rec,
            CausalRecorder::Origin{arrival.causalParent,
                                   arrival.when - from._latency,
                                   arrival.causalCtx},
            WaitKind::Wire, from.name());
    }
    eventQueue().scheduleOwnedAt(arrival.when, arrival.seq, _owner,
                                 kArrive);
}

void
Channel::admitDue()
{
    const Tick at = now();
    const std::uint64_t current = eventQueue().currentSeq();
    while (_arrivals.size() != 0) {
        const Arrival &head = _arrivals[0];
        if (head.when > at || (head.when == at && head.seq > current))
            return;
        // An idle channel starts only in the arrival's own event, so
        // the transfer's xfer_done takes the seq it always had.
        if (!_busy && head.seq != current) {
            if (simcheck::enabled() && current != UINT64_MAX)
                simcheck::fail("channel", at,
                               "'%s' is idle past its armed arrival "
                               "(%llu, %llu)",
                               name().c_str(),
                               static_cast<unsigned long long>(
                                   head.when),
                               static_cast<unsigned long long>(
                                   head.seq));
            return;
        }
        const Chunk chunk = head.chunk;
        const std::uint8_t causal_ctx = head.causalCtx;
        _arrivals.popFront();
        enqueue(chunk, causal_ctx);
    }
}

const Channel &
Channel::upstream(const Chunk &chunk)
{
    const std::vector<Channel *> &channels = chunk.path->channels;
    return *channels[chunk.pos == 0 ? channels.size() - 1
                                    : chunk.pos - 1];
}

void
Channel::fireOwnedEvent(unsigned kind)
{
    if (kind == kXferDone)
        finishTransfer();
    else
        admitArrivals(); // kArrive: this event's arrival is due now
}

void
Channel::appendOwnedLabel(unsigned kind, std::uint64_t seq,
                          std::string &out) const
{
    if (kind == kXferDone) {
        out += name();
        out += ".xfer_done";
        return;
    }
    // An arrival keeps the name of the delivery it stands for.
    for (std::size_t i = 0; i < _arrivals.size(); ++i) {
        if (_arrivals[i].seq == seq) {
            out += upstream(_arrivals[i].chunk).name();
            out += ".deliver";
            return;
        }
    }
    out += name();
    out += ".arrive";
}

void
Channel::enablePeakTracking(Tick window)
{
    if (window == 0)
        fatal("channel '%s': peak-tracking window must be positive",
              name().c_str());
    _peakWindow = window;
    _currentWindowStart = now();
    _currentWindowBytes = 0.0;
    _maxWindowBytes = 0.0;
}

void
Channel::recordWindowBytes(Tick at, double bytes)
{
    if (_peakWindow == 0)
        return;
    if (at >= _currentWindowStart + _peakWindow) {
        _maxWindowBytes = std::max(_maxWindowBytes, _currentWindowBytes);
        // Jump to the window containing `at`.
        const Tick windows_ahead = (at - _currentWindowStart) / _peakWindow;
        _currentWindowStart += windows_ahead * _peakWindow;
        _currentWindowBytes = 0.0;
    }
    _currentWindowBytes += bytes;
}

double
Channel::peakBandwidth() const
{
    if (_peakWindow == 0)
        return 0.0;
    const double peak = std::max(_maxWindowBytes, _currentWindowBytes);
    return peak / ticksToSeconds(_peakWindow);
}

void
Channel::simcheckVerifyConservation() const
{
    // Recompute the queued side from the queue itself so a drifted
    // incremental counter cannot mask a lost transfer.
    double queued = 0.0;
    std::size_t transfers = 0;
    for (std::size_t i = 0; i < _queue.size(); ++i) {
        queued += _queue[i].chunk.bytes * _queue[i].count;
        transfers += _queue[i].count;
    }
    if (transfers != _queueDepth)
        simcheck::fail("channel", now(),
                       "'%s' queue holds %zu transfers but reports a "
                       "depth of %zu",
                       name().c_str(), transfers, _queueDepth);
    const double eps =
        1e-6 * std::max(1.0, _conservedEnqueued); // fp rounding slack
    if (std::abs(queued - _conservedQueued) > eps)
        simcheck::fail("channel", now(),
                       "'%s' queue holds %.0f bytes but the ledger "
                       "says %.0f",
                       name().c_str(), queued, _conservedQueued);
    const double accounted =
        _conservedDelivered + _conservedWire + queued;
    if (std::abs(_conservedEnqueued - accounted) > eps)
        simcheck::fail("channel", now(),
                       "'%s' leaks bytes: enqueued %.0f != delivered "
                       "%.0f + in-flight %.0f + queued %.0f",
                       name().c_str(), _conservedEnqueued,
                       _conservedDelivered, _conservedWire, queued);
    if (_conservedWire < -eps || _conservedQueued < -eps)
        simcheck::fail("channel", now(),
                       "'%s' negative occupancy: in-flight %.0f, "
                       "queued %.0f",
                       name().c_str(), _conservedWire,
                       _conservedQueued);
}

void
Channel::resetStats()
{
    // Due arrivals count toward the peak being cleared.
    admitArrivals();
    _bytesTransferred = 0.0;
    _transfers = 0;
    _busyTicks = 0;
    _peakQueueDepth = 0;
    _currentWindowStart = now();
    _currentWindowBytes = 0.0;
    _maxWindowBytes = 0.0;
}

} // namespace mcdla
