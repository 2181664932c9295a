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
      _latency(latency), _owner(eq.registerOwner(*this))
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
    if (_queue.size() != 0) {
        Pending &tail = _queue[_queue.size() - 1];
        if (tail.bytes == bytes && tail.waited == waited
            && tail.causalCtx == causal_ctx && tail.count != UINT32_MAX
            && tail.onDelivered.sameTarget(handler)) {
            ++tail.count;
            return;
        }
    }
    Pending &slot = _queue.pushBack();
    slot.onDelivered = std::move(handler);
    slot.bytes = bytes;
    slot.count = 1;
    slot.waited = waited;
    slot.causalCtx = causal_ctx;
}

Channel::Pending
Channel::popQueue()
{
    --_queueDepth;
    Pending &head = _queue[0];
    if (head.count > 1) {
        --head.count;
        return Pending{head.onDelivered.clone(), head.bytes, 1,
                       head.waited, head.causalCtx};
    }
    Pending req = std::move(head);
    _queue.popFront();
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
    eventQueue().scheduleOwned(now() + occupancy, _owner, kXferDone);
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
            _deliveries.pushBack() = std::move(_xferHandler);
            CausalScope wire_scope(eventQueue().causalRecorder(),
                                   WaitKind::Wire, name());
            eventQueue().scheduleOwned(now() + _latency, _owner,
                                       kDeliver);
        }
    }
    startNext();
}

void
Channel::fireOwnedEvent(unsigned kind)
{
    if (kind == kXferDone) {
        finishTransfer();
        return;
    }
    // kDeliver: this event's transfer is the oldest one delivering.
    // Take its handler out first, so the call may submit anywhere.
    Handler handler = std::move(_deliveries[0]);
    _deliveries.popFront();
    handler();
}

void
Channel::appendOwnedLabel(unsigned kind, std::string &out) const
{
    out += name();
    out += kind == kXferDone ? ".xfer_done" : ".deliver";
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
        queued += _queue[i].bytes * _queue[i].count;
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
