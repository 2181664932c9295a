/**
 * @file
 * Flow helper implementation.
 *
 * Flow bookkeeping is pooled: one FlowState per in-flight flow carries
 * the route copies, the chunks-outstanding join counter and the
 * completion callback. States live on a thread-local free list (each
 * Simulator worker thread drives its own simulations), so steady-state
 * traffic performs no heap allocation at all — route/waiter vector
 * capacity is recycled from earlier flows, and the per-chunk closures
 * (ChunkHop: state pointer, route index, hop index, byte count) fit
 * inside the Channel::Handler inline buffer. ChunkHop compares by
 * value, so the block of equal chunks a flow queues on its first hop
 * is one run-length train in that channel's FIFO.
 */

#include "interconnect/flow.hh"

#include <cmath>
#include <memory>

#include "sim/logging.hh"

namespace mcdla
{

namespace
{

/** Pooled bookkeeping of one in-flight flow. */
struct FlowState
{
    std::vector<Route> routes;
    std::uint64_t remaining = 0; ///< chunks not yet fully delivered
    std::function<void()> done;
};

struct FlowPool
{
    std::vector<std::unique_ptr<FlowState>> all;
    std::vector<FlowState *> free;

    FlowState *
    acquire()
    {
        if (!free.empty()) {
            FlowState *state = free.back();
            free.pop_back();
            return state;
        }
        all.push_back(std::make_unique<FlowState>());
        return all.back().get();
    }

    void
    release(FlowState *state)
    {
        state->done = nullptr;
        free.push_back(state);
    }
};

FlowPool &
flowPool()
{
    thread_local FlowPool pool;
    return pool;
}

/** One chunk fully delivered; fire and recycle on the last one. */
void
completeChunk(FlowState *state)
{
    if (--state->remaining != 0)
        return;
    // Detach the callback and recycle *first*: the callback may start
    // new flows (and reuse this very state) or destroy the channels.
    std::function<void()> done = std::move(state->done);
    flowPool().release(state);
    if (done)
        done();
}

/** A chunk on hop @p hop of its route; delivery forwards it onward. */
struct ChunkHop
{
    FlowState *state;
    std::uint32_t route;
    std::uint32_t hop;
    double bytes;

    void
    submit() const
    {
        state->routes[route].hops[hop]->submit(bytes, *this);
    }

    void
    operator()() const
    {
        if (hop + 1 < state->routes[route].hops.size())
            ChunkHop{state, route, hop + 1, bytes}.submit();
        else
            completeChunk(state);
    }

    /** Equal hops merge into one channel FIFO train. */
    bool
    operator==(const ChunkHop &other) const
    {
        return state == other.state && route == other.route
               && hop == other.hop && bytes == other.bytes;
    }
};

static_assert(Channel::Handler::fitsInline<ChunkHop>(),
              "a flow chunk hop must not allocate");
static_assert(Channel::Handler::comparable<ChunkHop>(),
              "flow chunk hops must merge into channel trains");

} // anonymous namespace

void
sendFlow(const std::vector<Route> &routes, double bytes,
         double chunk_bytes, std::function<void()> on_done)
{
    if (routes.empty())
        panic("sendFlow: no routes");
    if (chunk_bytes <= 0.0)
        panic("sendFlow: non-positive chunk size");
    if (bytes <= 0.0) {
        if (on_done)
            on_done();
        return;
    }

    const auto chunks = static_cast<std::uint64_t>(
        std::ceil(bytes / chunk_bytes));
    FlowState *state = flowPool().acquire();
    state->routes.assign(routes.begin(), routes.end());
    state->remaining = chunks;
    state->done = std::move(on_done);

    double left = bytes;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        const double this_chunk = std::min(chunk_bytes, left);
        left -= this_chunk;
        ChunkHop{state, static_cast<std::uint32_t>(c % routes.size()),
                 0, this_chunk}
            .submit();
    }
}

} // namespace mcdla
