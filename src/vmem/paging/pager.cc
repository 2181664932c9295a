/**
 * @file
 * DevicePager implementation.
 */

#include "vmem/paging/pager.hh"

#include <algorithm>

#include "dnn/network.hh"
#include "sim/logging.hh"
#include "sim/units.hh"

namespace mcdla
{

namespace
{

std::uint64_t
accountKey(std::size_t op, LayerId layer)
{
    return (static_cast<std::uint64_t>(op) << 32)
        | static_cast<std::uint32_t>(layer);
}

} // anonymous namespace

DevicePager::DevicePager(std::string name, Wiring wiring)
    : _name(std::move(name)), _runtime(wiring.runtime),
      _schedule(wiring.schedule),
      _wireBytes(std::move(wiring.wireBytes)),
      _cfg(wiring.config),
      _table(wiring.frameCapacity,
             wiring.config.prefetch != PrefetchPolicyKind::StaticPlan),
      _fault(*wiring.runtime, *wiring.remotePtrs, _wireBytes,
             wiring.waves, *wiring.net, wiring.tracker),
      _policy(makePrefetchPolicy(wiring.config.prefetch)),
      _evict(makeEvictionPolicy(wiring.config.eviction))
{
    // Register one page group per offloaded layer; its last forward
    // use is the op the static plan writes it back after.
    std::map<LayerId, std::size_t> last_forward_use;
    for (std::size_t op = 0; op < _schedule->size(); ++op)
        for (LayerId layer : (*_schedule)[op].planWritebacks)
            last_forward_use[layer] = op;
    for (const auto &[layer, ptr] : *wiring.remotePtrs) {
        (void)ptr;
        auto it = last_forward_use.find(layer);
        if (it == last_forward_use.end())
            panic("offloaded layer %d has no plan writeback op", layer);
        _table.addEntry(
            layer,
            wiring.frameBytes.at(static_cast<std::size_t>(layer)),
            it->second);
    }

}

Tick
DevicePager::now() const
{
    return _runtime->dma().now();
}

void
DevicePager::beginIteration(TraceSink *trace)
{
    _counters = {};
    _stallTicks = 0;
    _table.resetIteration();
    // "dev<N>.pager" → DMA track "dev<N>.dma" on the vmem process.
    std::string track = _name;
    if (const auto pos = track.rfind(".pager");
        pos != std::string::npos)
        track.resize(pos);
    _fault.beginIteration(trace, !_policy->demandPaged(),
                          track + ".dma");
    _frontier = 0;
    _accounted.clear();
    _pendingFills.clear();
    _demandFillLatch.clear();
    _policy->beginIteration(*this);
}

void
DevicePager::opRetired(std::size_t op)
{
    const PageAccess &access = (*_schedule)[op];
    for (LayerId layer : access.produces)
        _table.produce(layer, now());

    // The retiring op is done with its reads: a later reader re-pins
    // at its own demand, so multi-reader stashes are evictable (and
    // refetchable) between readers.
    for (LayerId layer : access.reads)
        _table.entry(layer).pinned = false;

    _policy->opRetired(*this, op);

    // Demand paging keeps occupancy under the frame budget: freshly
    // produced stashes push older ones out. In-flight writebacks count
    // as pending frees so pressure never over-schedules evictions.
    if (_policy->demandPaged() && _table.enforcing()) {
        while (_table.usedBytes() - _table.evictingBytes()
               > _table.capacity()) {
            const LayerId victim =
                _evict->chooseVictim(_table, _frontier);
            if (victim == invalidLayerId)
                break;
            evictOne(victim);
        }
    }

    for (LayerId layer : access.releases)
        releaseRead(layer);
    // Releases free frames and unpinned reads become eviction victims;
    // either can unblock a queued fill.
    if (!access.releases.empty() || !access.reads.empty())
        pumpFills();
}

void
DevicePager::frontierAdvanced(std::size_t op)
{
    _frontier = op;
    _policy->frontierAdvanced(*this, op);
}

Latch *
DevicePager::demand(std::size_t op)
{
    const PageAccess &access = (*_schedule)[op];
    if (access.reads.empty())
        return nullptr;

    const bool demand_paged = _policy->demandPaged();
    for (LayerId layer : access.reads) {
        Latch *gate = nullptr;
        if (!demand_paged) {
            // Plan-driven: ensure the fill exists (the window normally
            // issued it already) and stall until its latch fires.
            requestFill(layer, true);
            Latch *latch = _fault.fillLatch(layer);
            if (latch != nullptr && !latch->done())
                gate = latch;
        } else {
            PageEntry &entry = _table.entry(layer);
            entry.pinned = true;
            if (entry.state == PageState::Resident) {
                _table.touch(layer, now());
            } else {
                requestFill(layer, true);
                auto it = _demandFillLatch.find(layer);
                if (it == _demandFillLatch.end())
                    panic("%s: fault on layer %d produced no latch",
                          _name.c_str(), layer);
                gate = it->second.get();
            }
        }

        if (_accounted.insert(accountKey(op, layer)).second) {
            if (gate != nullptr)
                ++_counters.demandMisses;
            else
                ++_counters.demandHits;
            _policy->accessed(*this, layer);
        }
        if (gate != nullptr)
            return gate;
    }
    return nullptr;
}

void
DevicePager::noteStall(Tick ticks)
{
    _stallTicks += ticks;
}

void
DevicePager::planWriteback(LayerId layer)
{
    _table.beginEvict(layer);
    ++_counters.writebacks;
    _fault.writeback(layer, [this, layer] {
        _table.finishEvict(layer);
        _counters.bytesWrittenBack +=
            _wireBytes.at(static_cast<std::size_t>(layer));
    });
}

void
DevicePager::requestFill(LayerId layer, bool demand)
{
    if (!_policy->demandPaged()) {
        const bool issued = _fault.fill(
            layer, demand,
            [this, layer] { _table.beginFill(layer); },
            [this, layer] {
                _table.finishFill(layer, now());
                _counters.bytesFilled +=
                    _wireBytes.at(static_cast<std::size_t>(layer));
            });
        if (issued) {
            ++_counters.fills;
            if (demand)
                ++_counters.demandFills;
        }
        return;
    }

    if (_demandFillLatch.count(layer)) {
        // A fault can land on a fill still queued as a prefetch:
        // upgrade it so the no-progress diagnostic (which only weighs
        // demand fills) and the demand_fills counter see the fault.
        if (demand) {
            for (auto &pending : _pendingFills) {
                if (pending.first == layer && !pending.second) {
                    pending.second = true;
                    ++_counters.demandFills;
                    break;
                }
            }
            // Pins may have moved since the fill was queued; retry it
            // (or let the no-progress diagnostic fire) now that the
            // compute stream is about to stall on it.
            pumpFills();
        }
        return;
    }
    const PageEntry &entry = _table.entry(layer);
    if (entry.state == PageState::Resident
        || entry.state == PageState::Filling)
        return;
    if (entry.state == PageState::Invalid) {
        // A prefetch may run ahead of production (or past a release);
        // only a real fault on an unproduced stash is a bug.
        if (!demand)
            return;
        panic("%s: fault on layer %d before its stash was produced",
              _name.c_str(), layer);
    }

    if (_table.enforcing() && entry.bytes > _table.capacity())
        fatal("%s: stash of layer %d (%llu bytes) exceeds the whole "
              "HBM frame budget (%llu bytes); raise --hbm-capacity",
              _name.c_str(), layer,
              static_cast<unsigned long long>(entry.bytes),
              static_cast<unsigned long long>(_table.capacity()));

    _demandFillLatch.emplace(layer, std::make_shared<Latch>());
    ++_counters.fills;
    if (demand)
        ++_counters.demandFills;
    _pendingFills.emplace_back(layer, demand);
    pumpFills();
}

void
DevicePager::evictOne(LayerId victim)
{
    PageEntry &entry = _table.entry(victim);
    if (entry.lastForwardUseOp >= _frontier)
        ++_counters.earlyEvictions;
    if (entry.dirty) {
        _table.beginEvict(victim);
        ++_counters.writebacks;
        _fault.issueWritebackDma(victim, [this, victim] {
            _table.finishEvict(victim);
            _counters.bytesWrittenBack +=
                _wireBytes.at(static_cast<std::size_t>(victim));
            pumpFills();
        });
    } else {
        // The backing store still holds a valid copy (stashes are
        // immutable): the frames free instantly.
        _table.discard(victim);
        ++_counters.cleanDrops;
    }
}

void
DevicePager::pumpFills()
{
    if (_pumping)
        return;
    _pumping = true;

    bool progress = true;
    while (progress) {
        progress = false;
        for (auto it = _pendingFills.begin();
             it != _pendingFills.end();) {
            const LayerId layer = it->first;
            const bool demand = it->second;
            PageEntry &entry = _table.entry(layer);
            if (entry.state == PageState::Evicting) {
                // Fault collided with this group's own writeback; the
                // drain callback pumps again.
                ++it;
                continue;
            }
            if (_table.enforcing()
                && _table.freeBytes() < entry.bytes) {
                evictUntilFits(entry.bytes);
                if (_table.freeBytes() < entry.bytes) {
                    ++it;
                    continue;
                }
            }
            _table.beginFill(layer);
            _fault.issueFillDma(layer, demand, [this, layer] {
                _table.finishFill(layer, now());
                _counters.bytesFilled +=
                    _wireBytes.at(static_cast<std::size_t>(layer));
                auto latch_it = _demandFillLatch.find(layer);
                if (latch_it == _demandFillLatch.end())
                    panic("%s: fill of layer %d drained without a "
                          "latch",
                          _name.c_str(), layer);
                auto latch = latch_it->second;
                _demandFillLatch.erase(latch_it);
                latch->complete();
                // The drained group is evictable now; queued fills may
                // be able to claim its frames.
                pumpFills();
            });
            it = _pendingFills.erase(it);
            progress = true;
        }
    }

    // A queued demand fill with no eviction or fill in flight can make
    // no further progress: the compute stream is stalled on it, so no
    // drain or release will ever free frames.
    if (_table.evictionsInFlight() == 0
        && _table.fillsInFlight() == 0) {
        for (const auto &[layer, demand] : _pendingFills) {
            const PageEntry &entry = _table.entry(layer);
            if (demand && entry.state != PageState::Evicting)
                fatal("%s: page fault on layer %d cannot make "
                      "progress (%llu of %llu frame bytes free, no "
                      "evictable pages); raise --hbm-capacity",
                      _name.c_str(), layer,
                      static_cast<unsigned long long>(
                          _table.freeBytes()),
                      static_cast<unsigned long long>(
                          _table.capacity()));
        }
    }
    _pumping = false;
}

void
DevicePager::evictUntilFits(std::uint64_t bytes)
{
    // Pending writeback drains count as future frees; stop scheduling
    // evictions once they cover the request.
    while (_table.freeBytes() + _table.evictingBytes() < bytes) {
        const LayerId victim = _evict->chooseVictim(_table, _frontier);
        if (victim == invalidLayerId)
            return;
        evictOne(victim);
    }
}

void
DevicePager::releaseRead(LayerId layer)
{
    _table.release(layer);
}

PagingCounters
DevicePager::counters() const
{
    PagingCounters c = _counters;
    c.stallSec = ticksToSeconds(_stallTicks);
    c.peakResidentBytes = _table.peakUsedBytes();
    return c;
}

} // namespace mcdla
