/**
 * @file
 * DmaEngine implementation.
 *
 * A transfer is one flow from the engine's own FlowPool with one leg per
 * path that carries a share of the payload, so a multi-path copy has a
 * single completion and no join record.
 */

#include "vmem/dma_engine.hh"

#include "sim/causal.hh"
#include "sim/logging.hh"

namespace mcdla
{

DmaEngine::DmaEngine(EventQueue &eq, std::string name,
                     const std::vector<VmemPath> &paths,
                     double chunk_bytes)
    : SimObject(eq, std::move(name)), _paths(paths),
      _chunkBytes(chunk_bytes)
{
    if (_chunkBytes <= 0.0)
        fatal("dma engine '%s': chunk size must be positive",
              this->name().c_str());
    stats().scalar("bytes_offloaded", "devicelocal -> backing store");
    stats().scalar("bytes_prefetched", "backing store -> devicelocal");
    stats().scalar("transfers", "DMA operations issued");
}

void
DmaEngine::transfer(double bytes, DmaDirection direction,
                    const std::vector<double> &fractions,
                    EventQueue::Callback on_done)
{
    if (!hasBackingStore())
        fatal("dma engine '%s': transfer without a backing store",
              name().c_str());
    // Paging/virtualization traffic: degenerate completions and the
    // chunk submissions below are DMA-subsystem edges; the channel
    // hops they fan into inherit the context.
    CausalScope causal_scope(eventQueue().causalRecorder(),
                             WaitKind::Dma, CausalCtx::Dma, name());
    if (bytes <= 0.0) {
        completeEmpty(std::move(on_done), "empty_dma");
        return;
    }
    if (!fractions.empty() && fractions.size() != _paths.size())
        panic("dma engine '%s': %zu fractions for %zu paths",
              name().c_str(), fractions.size(), _paths.size());

    ++stats().scalar("transfers");
    if (direction == DmaDirection::LocalToRemote) {
        _bytesOffloaded += bytes;
        stats().scalar("bytes_offloaded") += bytes;
    } else {
        _bytesPrefetched += bytes;
        stats().scalar("bytes_prefetched") += bytes;
    }

    // One leg per path with a share; the flow completes once, in the
    // event of its latest chunk delivery.
    _legs.clear();
    for (std::size_t i = 0; i < _paths.size(); ++i) {
        const double f = fractions.empty()
            ? 1.0 / static_cast<double>(_paths.size())
            : fractions[i];
        if (f <= 0.0)
            continue;
        _legs.push_back({direction == DmaDirection::LocalToRemote
                             ? &_paths[i].writeRoutes
                             : &_paths[i].readRoutes,
                         bytes * f});
    }
    if (_legs.empty()) {
        completeEmpty(std::move(on_done), "zero_fraction_dma");
        return;
    }
    _flows.send(_legs.data(), _legs.size(), _chunkBytes,
                std::move(on_done));
}

void
DmaEngine::completeEmpty(EventQueue::Callback on_done, const char *what)
{
    // Scheduled even with nothing to run: the event stream does not
    // depend on whether the caller passed a completion.
    eventQueue().scheduleAfter(
        0, on_done ? std::move(on_done) : EventQueue::Callback([] {}),
        EventLabel::dotted(name(), what));
}

} // namespace mcdla
