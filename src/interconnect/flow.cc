/**
 * @file
 * FlowPool implementation.
 *
 * A Record holds the route copies of all of a flow's legs (flattened,
 * so a chunk names its route by one index), the chunks outstanding, the
 * completion callback and its pool. Recycled records keep their route
 * capacity, and a chunk's closure (ChunkHop: record, route index, hop
 * index, byte count) fits inside the Channel::Handler inline buffer.
 * ChunkHop compares by value, so the equal chunks a leg queues on its
 * first hop are one run-length train in that channel's FIFO; chunks of
 * different legs differ in route index and never merge.
 */

#include "interconnect/flow.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace mcdla
{

struct FlowPool::Record
{
    FlowPool *pool = nullptr;
    std::vector<Route> routes;   ///< every leg's routes, in leg order
    std::uint64_t remaining = 0; ///< chunks not yet fully delivered
    Handler done;

    /** Recycle, then fire: the callback may start new flows (reusing
        this very record) or destroy the channels or the pool. */
    void
    finish()
    {
        Handler fire = std::move(done);
        done = nullptr;
        pool->_free.push_back(this);
        if (fire)
            fire();
    }
};

/** A chunk on hop @p hop of its route; delivery forwards it onward. */
struct FlowPool::ChunkHop
{
    Record *record;
    std::uint32_t route;
    std::uint32_t hop;
    double bytes;

    void
    submit() const
    {
        record->routes[route].hops[hop]->submit(bytes, *this);
    }

    void
    operator()() const
    {
        if (hop + 1 < record->routes[route].hops.size())
            ChunkHop{record, route, hop + 1, bytes}.submit();
        else if (--record->remaining == 0)
            record->finish();
    }

    /** Equal hops merge into one channel FIFO train. */
    bool
    operator==(const ChunkHop &other) const
    {
        return record == other.record && route == other.route
               && hop == other.hop && bytes == other.bytes;
    }
};

FlowPool::FlowPool() = default;
FlowPool::~FlowPool() = default;

void
FlowPool::send(const FlowLeg *legs, std::size_t count, double chunk_bytes,
               Handler on_done)
{
    static_assert(Channel::Handler::fitsInline<ChunkHop>(),
                  "a flow chunk hop must not allocate");
    static_assert(Channel::Handler::comparable<ChunkHop>(),
                  "flow chunk hops must merge into channel trains");
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
    record->remaining = 0;
    std::size_t base = 0;
    for (const FlowLeg *leg = legs; leg != legs + count; ++leg) {
        const std::vector<Route> &routes = *leg->routes;
        if (routes.empty())
            panic("flow: leg %zu has no routes",
                  static_cast<std::size_t>(leg - legs));
        // Copy-assign into the recycled routes to keep their capacity.
        record->routes.resize(base + routes.size());
        for (std::size_t r = 0; r < routes.size(); ++r)
            record->routes[base + r].hops = routes[r].hops;
        const auto chunks = static_cast<std::uint64_t>(
            std::ceil(std::max(leg->bytes, 0.0) / chunk_bytes));
        record->remaining += chunks;
        double left = leg->bytes;
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const double this_chunk = std::min(chunk_bytes, left);
            left -= this_chunk;
            ChunkHop{record,
                     static_cast<std::uint32_t>(base + c % routes.size()),
                     0, this_chunk}
                .submit();
        }
        base += routes.size();
    }
    if (record->remaining == 0)
        record->finish();
}

} // namespace mcdla
