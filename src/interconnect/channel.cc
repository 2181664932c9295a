/**
 * @file
 * Channel implementation.
 */

#include "interconnect/channel.hh"

#include <cmath>

#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"

namespace mcdla
{

Channel::Channel(EventQueue &eq, std::string name, double bandwidth,
                 Tick latency)
    : SimObject(eq, std::move(name)), _bandwidth(bandwidth),
      _latency(latency)
{
    if (bandwidth <= 0.0)
        fatal("channel '%s' requires positive bandwidth",
              this->name().c_str());
    stats().formula("bytes", [this] { return _bytesTransferred; },
                    "payload bytes delivered");
    stats().formula("transfers",
                    [this] { return static_cast<double>(_transfers); },
                    "transfer count");
    stats().formula("busy_seconds",
                    [this] { return ticksToSeconds(_busyTicks); },
                    "occupied time");
}

void
Channel::pushQueue(double bytes, Handler &&handler, bool waited,
                   std::uint8_t causal_ctx)
{
    ++_queueDepth;
    if (_queueEntries != 0) {
        Pending &tail = queuedAt(_queueEntries - 1);
        if (tail.bytes == bytes && tail.waited == waited
            && tail.causalCtx == causal_ctx && tail.count != UINT32_MAX
            && tail.onDelivered.sameTarget(handler)) {
            ++tail.count;
            return;
        }
    }
    if (_queueEntries == _queue.size()) {
        // Full (or never allocated): regrow to the next power of two,
        // replaying the ring in FIFO order into the fresh storage.
        std::vector<Pending> grown(
            std::max<std::size_t>(8, 2 * _queue.size()));
        for (std::size_t i = 0; i < _queueEntries; ++i)
            grown[i] = std::move(queuedAt(i));
        _queue.swap(grown);
        _queueHead = 0;
    }
    Pending &slot =
        _queue[(_queueHead + _queueEntries) & (_queue.size() - 1)];
    slot.onDelivered = std::move(handler);
    slot.bytes = bytes;
    slot.count = 1;
    slot.waited = waited;
    slot.causalCtx = causal_ctx;
    ++_queueEntries;
}

Channel::Pending
Channel::popQueue()
{
    --_queueDepth;
    Pending &head = _queue[_queueHead];
    if (head.count > 1) {
        --head.count;
        return Pending{head.onDelivered.clone(), head.bytes, 1,
                       head.waited, head.causalCtx};
    }
    Pending req = std::move(head);
    _queueHead = (_queueHead + 1) & (_queue.size() - 1);
    --_queueEntries;
    return req;
}

void
Channel::submit(double bytes, Handler on_delivered)
{
    if (bytes <= 0.0)
        panic("channel '%s': non-positive transfer size", name().c_str());
    _conservedEnqueued += bytes;
    _conservedQueued += bytes;
    std::uint8_t causal_ctx = 0;
    if (const CausalRecorder *rec = eventQueue().causalRecorder())
        causal_ctx = rec->currentCtxRaw();
    pushQueue(bytes, std::move(on_delivered), _busy, causal_ctx);
    if (simcheck::enabled())
        simcheckVerifyConservation();
    // Only count genuine waiters: on an idle channel the transfer
    // starts immediately, so an uncontended channel reports 0.
    if (_busy)
        _peakQueueDepth = std::max(_peakQueueDepth, _queueDepth);
    else
        startNext();
}

void
Channel::startNext()
{
    if (_queueDepth == 0) {
        _busy = false;
        return;
    }
    _busy = true;
    Pending req = popQueue();
    _conservedQueued -= req.bytes;
    _conservedWire += req.bytes;

    const Tick occupancy = transferTicks(req.bytes, _bandwidth);
    _busyTicks += occupancy;
    _bytesTransferred += req.bytes;
    ++_transfers;

    _xferBytes = req.bytes;
    _xferHandler = std::move(req.onDelivered);
    // Causal tagging: the occupancy edge is chan_xfer (idle start) or
    // chan_queue (started after queueing), in the subsystem context
    // the transfer was submitted under; the post-occupancy delivery
    // hop is a wire edge inheriting its parent's context.
    CausalScope occupancy_scope(
        eventQueue().causalRecorder(),
        req.waited ? WaitKind::ChanQueue : WaitKind::ChanXfer,
        CausalRecorder::ctxFromRaw(req.causalCtx), name());
    after(occupancy, [this] { finishTransfer(); }, "xfer_done");
}

void
Channel::finishTransfer()
{
    const double bytes = _xferBytes;
    _conservedWire -= bytes;
    _conservedDelivered += bytes;
    if (simcheck::enabled())
        simcheckVerifyConservation();
    recordWindowBytes(now(), bytes);
    // Wire latency delays delivery but not the next transfer.
    if (_xferHandler) {
        if (_latency == 0) {
            Handler handler = std::move(_xferHandler);
            handler();
        } else {
            CausalScope wire_scope(eventQueue().causalRecorder(),
                                   WaitKind::Wire, name());
            eventQueue().scheduleAfter(
                _latency, std::move(_xferHandler),
                EventLabel::dotted(name(), "deliver"));
        }
    }
    startNext();
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
    for (std::size_t i = 0; i < _queueEntries; ++i) {
        queued += queuedAt(i).bytes * queuedAt(i).count;
        transfers += queuedAt(i).count;
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
    SimObject::resetStats();
    _bytesTransferred = 0.0;
    _transfers = 0;
    _busyTicks = 0;
    _peakQueueDepth = 0;
    _currentWindowStart = now();
    _currentWindowBytes = 0.0;
    _maxWindowBytes = 0.0;
}

} // namespace mcdla
