/**
 * @file
 * FlowPool implementation.
 *
 * A Record is the ChunkPath of one flow: the channels of all of its
 * legs' routes, flattened, and the flow's completion. Recycled records
 * keep their capacity. A chunk on route r is submitted at the
 * route's first channel with the rest of the route to go, so the equal
 * chunks a leg queues on its first hop are one run-length train in
 * that channel's FIFO; chunks of different routes differ in position
 * and never merge.
 */

#include "interconnect/flow.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace mcdla
{

struct FlowPool::Record final : ChunkPath
{
    FlowPool *pool = nullptr;
    EventQueue::Callback done;

    /** Recycle, then fire: the callback may start new flows (reusing
        this very record) or destroy the channels or the pool. */
    void
    complete() override
    {
        EventQueue::Callback fire = std::move(done);
        pool->_free.push_back(this);
        if (fire)
            fire();
    }
};

FlowPool::FlowPool() = default;
FlowPool::~FlowPool() = default;

void
FlowPool::send(const FlowLeg *legs, std::size_t count, double chunk_bytes,
               EventQueue::Callback on_done)
{
    if (chunk_bytes <= 0.0)
        panic("flow: non-positive chunk size");

    Record *record;
    if (!_free.empty()) {
        record = _free.back();
        _free.pop_back();
    } else {
        _all.push_back(std::make_unique<Record>());
        record = _all.back().get();
        record->pool = this;
    }
    record->done = std::move(on_done);
    record->outstanding = 0;
    record->channels.clear();
    for (const FlowLeg *leg = legs; leg != legs + count; ++leg) {
        const std::vector<Route> &routes = *leg->routes;
        if (routes.empty())
            panic("flow: leg %zu has no routes",
                  static_cast<std::size_t>(leg - legs));
        const auto first =
            static_cast<std::uint32_t>(record->channels.size());
        for (const Route &route : routes) {
            if (!route.valid())
                panic("flow: leg %zu has an empty route",
                      static_cast<std::size_t>(leg - legs));
            record->channels.insert(record->channels.end(),
                                    route.hops.begin(), route.hops.end());
        }
        const auto chunks = static_cast<std::uint64_t>(
            std::ceil(std::max(leg->bytes, 0.0) / chunk_bytes));
        record->outstanding += chunks;
        // Chunks take the leg's routes in turn; `start` is where the
        // current route begins in the record's channels.
        std::size_t route = 0;
        std::uint32_t start = first;
        double left = leg->bytes;
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const double this_chunk = std::min(chunk_bytes, left);
            left -= this_chunk;
            const auto hops =
                static_cast<std::uint32_t>(routes[route].hops.size());
            record->channels[start]->submit(
                Chunk{record, start, hops - 1, this_chunk});
            start += hops;
            if (++route == routes.size()) {
                route = 0;
                start = first;
            }
        }
    }
    if (record->outstanding == 0)
        record->complete();
}

} // namespace mcdla
