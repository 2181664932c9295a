/**
 * @file
 * FaultHandler implementation.
 */

#include "vmem/paging/fault_handler.hh"

#include "dnn/network.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"
#include "sim/trace.hh"

namespace mcdla
{

FaultHandler::FaultHandler(
    VmemRuntime &runtime,
    const std::map<LayerId, RemotePtr> &remote_ptrs,
    const std::vector<double> &wire_bytes,
    int waves, const Network &net,
    ActivityTracker *tracker)
    : _runtime(runtime), _remotePtrs(remote_ptrs),
      _wireBytes(wire_bytes), _waves(waves), _net(net),
      _tracker(tracker)
{}

void
FaultHandler::beginIteration(TraceSink *trace,
                             bool precreate_writeback_latches,
                             std::string trace_track)
{
    _trace = trace;
    _traceTrack = std::move(trace_track);
    _writebackIssued.clear();
    ++_epoch;
    const std::size_t groups = _wireBytes.size();
    _writebackLatches.resize(groups);
    _fillLatches.resize(groups);
    _writebackArmed.assign(groups, 0);
    _fillRequested.assign(groups, 0);
    for (std::size_t g = 0; g < groups; ++g) {
        _writebackLatches[g].reset();
        _fillLatches[g].reset();
    }
    if (precreate_writeback_latches) {
        // Static-plan fills chain on writebacks that may not have been
        // issued yet, so every offloaded layer's latch is armed up
        // front.
        for (const auto &[layer, ptr] : _remotePtrs) {
            (void)ptr;
            _writebackArmed.at(static_cast<std::size_t>(layer)) = 1;
        }
    }
}

double
FaultHandler::wireBytes(LayerId layer) const
{
    return _wireBytes.at(static_cast<std::size_t>(layer));
}

void
FaultHandler::transfer(LayerId layer, DmaDirection direction,
                       const char *label, Latch *latch,
                       std::uint64_t epoch, EventQueue::Callback on_drain)
{
    const double bytes = wireBytes(layer);
    const Tick issued = _runtime.dma().now();
    if (_tracker)
        _tracker->begin(issued);
    ++_outstanding;
    _runtime.memcpyAsync(
        _remotePtrs.at(layer), bytes, direction,
        [this, issued, layer, label, direction, latch, epoch,
         on_drain = std::move(on_drain)]() mutable {
            const Tick now = _runtime.dma().now();
            if (_tracker) {
                _tracker->end(now);
                if (_trace) {
                    // Invariant guards: the span must lie entirely in
                    // the past ([issued, now], now() included).
                    if (issued > now)
                        panic("DMA trace span of group %d starts at "
                              "tick %llu, after its completion (%llu)",
                              layer,
                              static_cast<unsigned long long>(issued),
                              static_cast<unsigned long long>(now));
                    const LayerId owner = layer / _waves;
                    _trace->addSpan("vmem", _traceTrack,
                                    label + _net.layer(owner).name(),
                                    issued, now - issued, "dma");
                    if (direction == DmaDirection::LocalToRemote) {
                        _writebackIssued[layer] = issued;
                    } else if (auto wb = _writebackIssued.find(layer);
                               wb != _writebackIssued.end()) {
                        // Write-before-read arrow, offload -> fill.
                        // Both endpoints are emitted here so a group
                        // that is never filled back leaves no
                        // dangling arrow.
                        const std::uint64_t flow = _trace->newFlow();
                        _trace->flowBegin("vmem", _traceTrack,
                                          "wb->fill", wb->second, flow,
                                          "dma");
                        _trace->flowEnd("vmem", _traceTrack,
                                        "wb->fill", issued, flow,
                                        "dma");
                        _writebackIssued.erase(wb);
                    }
                }
            }
            if (on_drain)
                on_drain();
            if (latch && epoch == _epoch)
                latch->complete();
            if (simcheck::enabled() && _outstanding == 0)
                simcheck::fail(
                    "fault-handler", now,
                    "DMA of group %d drained with no outstanding "
                    "transfer on record (count underflow)",
                    layer);
            if (--_outstanding == 0 && !_idleWaiters.empty()) {
                std::vector<EventQueue::Callback> waiters;
                waiters.swap(_idleWaiters);
                for (EventQueue::Callback &waiter : waiters)
                    waiter();
            }
        });
}

void
FaultHandler::simcheckExpectQuiescent(const char *when) const
{
    if (_outstanding != 0)
        simcheck::fail("fault-handler", _runtime.dma().now(),
                       "%llu DMA transfer(s) still outstanding at %s "
                       "(leaked DMA)",
                       static_cast<unsigned long long>(_outstanding),
                       when);
}

void
FaultHandler::whenDmaIdle(EventQueue::Callback cb)
{
    if (!cb)
        return;
    if (_outstanding == 0)
        cb();
    else
        _idleWaiters.push_back(std::move(cb));
}

void
FaultHandler::writeback(LayerId layer, EventQueue::Callback on_drain)
{
    const auto idx = static_cast<std::size_t>(layer);
    if (idx >= _writebackArmed.size() || !_writebackArmed[idx])
        panic("offload of layer %d lacks a pre-created latch", layer);
    transfer(layer, DmaDirection::LocalToRemote, "offload ",
             &_writebackLatches[idx], _epoch, std::move(on_drain));
}

bool
FaultHandler::fill(LayerId layer, bool demand,
                   EventQueue::Callback on_issue,
                   EventQueue::Callback on_drain)
{
    const auto idx = static_cast<std::size_t>(layer);
    if (idx < _fillRequested.size() && _fillRequested[idx])
        return false;
    if (idx >= _writebackArmed.size() || !_writebackArmed[idx])
        panic("prefetch of layer %d before its offload latch exists",
              layer);
    _fillRequested[idx] = 1;

    // Write-before-read: the fill DMA starts only once the writeback
    // of the same group has fully drained.
    _writebackLatches[idx].whenDone(
        [this, layer, demand, latch = &_fillLatches[idx], epoch = _epoch,
         on_issue = std::move(on_issue),
         on_drain = std::move(on_drain)]() mutable {
            if (on_issue)
                on_issue();
            transfer(layer, DmaDirection::RemoteToLocal,
                     demand ? "fault " : "prefetch ", latch, epoch,
                     std::move(on_drain));
        });
    return true;
}

Latch *
FaultHandler::fillLatch(LayerId layer) const
{
    const auto idx = static_cast<std::size_t>(layer);
    if (idx >= _fillRequested.size() || !_fillRequested[idx])
        return nullptr;
    return const_cast<Latch *>(&_fillLatches[idx]);
}

void
FaultHandler::issueWritebackDma(LayerId layer,
                                EventQueue::Callback on_drain)
{
    transfer(layer, DmaDirection::LocalToRemote, "evict ", nullptr, 0,
             std::move(on_drain));
}

void
FaultHandler::issueFillDma(LayerId layer, bool demand,
                           EventQueue::Callback on_drain)
{
    transfer(layer, DmaDirection::RemoteToLocal,
             demand ? "fault " : "prefetch ", nullptr, 0,
             std::move(on_drain));
}

} // namespace mcdla
