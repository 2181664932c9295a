/**
 * @file
 * CollectiveEngine implementation.
 */

#include "collective/ring_collective.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace mcdla
{

const char *
collectiveKindName(CollectiveKind kind)
{
    switch (kind) {
      case CollectiveKind::AllGather: return "all-gather";
      case CollectiveKind::AllReduce: return "all-reduce";
      case CollectiveKind::ReduceScatter: return "reduce-scatter";
      case CollectiveKind::Broadcast: return "broadcast";
    }
    return "unknown";
}

namespace
{

/** Most channels in one ring: an all-reduce chunk's walk, under
    twice the ring, must fit a Chunk's 32-bit count. */
constexpr std::size_t kMaxRingChannels = UINT32_MAX / 2;

} // anonymous namespace

CollectiveEngine::CollectiveEngine(EventQueue &eq, std::string name,
                                   const Fabric &fabric,
                                   CollectiveConfig cfg)
    : SimObject(eq, std::move(name)), _fabric(fabric), _cfg(cfg)
{
    for (const RingPath &ring : fabric.rings())
        _rings.push_back(&ring);
    stats().scalar("ops", "collective operations completed");
    stats().scalar("bytes", "collective payload bytes launched");
    if (_cfg.chunkBytes <= 0.0)
        fatal("collective chunk size must be positive");
}

void
CollectiveEngine::launch(CollectiveKind kind, double total_bytes,
                         EventQueue::Callback on_done, int root)
{
    launchOn(_rings, kind, total_bytes, std::move(on_done), root);
}

void
CollectiveEngine::launchOn(const std::vector<const RingPath *> &rings,
                           CollectiveKind kind, double total_bytes,
                           EventQueue::Callback on_done, int root)
{
    // Everything scheduled while launching — degenerate noops and the
    // first wave of chunk submissions — belongs to the collective
    // subsystem; chained hops inherit the context from their parents.
    CausalScope causal_scope(eventQueue().causalRecorder(),
                             WaitKind::Collective,
                             CausalCtx::Collective, name());
    _bytesLaunched += total_bytes;
    stats().scalar("bytes") += total_bytes;

    CollectiveOp *op = acquire(_collectiveOps, _freeCollectiveOps);
    op->done = std::move(on_done);
    op->kind = kind;
    op->bytes = total_bytes;
    op->root = root;
    op->before.clear();
    op->rings.clear();
    op->after.clear();
    op->afterRings = false;

    // Tree-structured algorithms operate on the participating devices
    // (ring order) and route transfers over the topology graph instead
    // of walking the rings.
    const bool ring = _cfg.algorithm == CollectiveAlgorithm::Ring;
    std::vector<int> devices;
    if (!ring && !rings.empty())
        devices = rings[0]->deviceMembers();
    if (total_bytes <= 0.0 || rings.empty()
        || (!ring && devices.size() < 2)) {
        // Degenerate: nothing to move (or nowhere to move it).
        auto noop = [this, op] { finish(op); };
        static_assert(EventQueue::Callback::fitsInline<decltype(noop)>());
        eventQueue().scheduleAfter(0, std::move(noop), name() + ".noop");
        return;
    }
    if (ring)
        op->rings = rings;
    else
        planTree(*op, std::move(devices));
    runRounds(op, 0);
}

template <class Record>
Record *
CollectiveEngine::acquire(std::deque<Record> &all,
                          std::vector<Record *> &idle)
{
    if (idle.empty()) {
        all.emplace_back();
        return &all.back();
    }
    Record *record = idle.back();
    idle.pop_back();
    return record;
}

void
CollectiveEngine::planTree(CollectiveOp &op, std::vector<int> order) const
{
    const int m = static_cast<int>(order.size());
    // Broadcast rotates the participants so the root leads the tree.
    if (op.kind == CollectiveKind::Broadcast) {
        auto it = std::find(order.begin(), order.end(), op.root);
        if (it != order.end())
            std::rotate(order.begin(), it, order.end());
    }

    // Merge position rounds @p in of the participants from
    // order[first] on into rounds at, at + 1, ... of @p out.
    auto merge = [&order](const std::vector<Round> &in, int first,
                          std::vector<Round> &out, std::size_t at) {
        if (out.size() < at + in.size())
            out.resize(at + in.size());
        for (std::size_t r = 0; r < in.size(); ++r)
            for (const auto &[src, dst] : in[r])
                out[at + r].emplace_back(
                    order[static_cast<std::size_t>(first + src)],
                    order[static_cast<std::size_t>(first + dst)]);
    };

    const int board = std::max(1, std::min(_cfg.boardDevices, m));
    const bool reduce = op.kind == CollectiveKind::AllReduce
        || op.kind == CollectiveKind::ReduceScatter;
    const bool bcast = op.kind != CollectiveKind::ReduceScatter;
    if (_cfg.algorithm == CollectiveAlgorithm::Tree
        || op.kind == CollectiveKind::Broadcast || board >= m) {
        // Flat: reduce and broadcast rounds in one phase.
        if (reduce)
            merge(reduceRounds(m), 0, op.before, 0);
        if (bcast)
            merge(broadcastRounds(m), 0, op.before, op.before.size());
        return;
    }

    // Hierarchical: consecutive boards reduce/broadcast internally
    // through binomial trees, each board's round r merged into the
    // global round r so the boards progress concurrently between
    // barriers; board leaders exchange over an inter-board ring
    // embedded on the topology's shortest paths.
    std::vector<int> leaders;
    for (int first = 0; first < m; first += board) {
        const int size = std::min(board, m - first);
        leaders.push_back(order[static_cast<std::size_t>(first)]);
        if (reduce)
            merge(reduceRounds(size), first, op.before, 0);
        if (bcast)
            merge(broadcastRounds(size), first, op.after, 0);
    }
    op.leaders = RingPath{};
    for (std::size_t i = 0; i < leaders.size(); ++i) {
        const int src = leaders[i];
        const int dst = leaders[(i + 1) % leaders.size()];
        Route hop = _fabric.deviceRoute(src, dst);
        if (!hop.valid())
            fatal("%s: no route between board leaders %d and %d",
                  name().c_str(), src, dst);
        op.leaders.stages.push_back(RingStage{true, src});
        op.leaders.hops.push_back(std::move(hop));
    }
    op.rings.push_back(&op.leaders);
}

void
CollectiveEngine::runRounds(CollectiveOp *op, std::size_t index)
{
    const std::vector<Round> &rounds =
        op->afterRings ? op->after : op->before;
    while (index < rounds.size() && rounds[index].empty())
        ++index;
    if (index >= rounds.size()) {
        if (op->afterRings) {
            finish(op);
            return;
        }
        // The rounds before ran out: the rings, then the rounds after.
        op->afterRings = true;
        op->ringsLeft = op->rings.size();
        op->started = now();
        if (op->rings.empty())
            runRounds(op, 0);
        else
            for (const RingPath *ring : op->rings)
                runOnRing(op, *ring);
        return;
    }
    const Round &round = rounds[index];
    // One flow per round: a one-route leg per (src, dst) transfer
    // (reserved, so the legs' route pointers stay valid).
    std::vector<std::vector<Route>> routes;
    std::vector<FlowLeg> legs;
    routes.reserve(round.size());
    for (const auto &[src, dst] : round) {
        Route route = _fabric.deviceRoute(src, dst);
        if (!route.valid())
            fatal("%s: no route from device %d to device %d for a "
                  "tree collective round", name().c_str(), src, dst);
        routes.push_back({std::move(route)});
        legs.push_back({&routes.back(), op->bytes});
    }
    op->started = now();
    auto round_done = [this, op, index] {
        if (TraceSink *trace = eventQueue().trace()) {
            const std::vector<Round> &phase =
                op->afterRings ? op->after : op->before;
            const std::string label = "round " + std::to_string(index + 1)
                + "/" + std::to_string(phase.size()) + " ("
                + std::to_string(phase[index].size()) + " xfer)";
            trace->addSpan("collective", "rounds", label, op->started,
                           now() - op->started, "sync");
        }
        runRounds(op, index + 1);
    };
    static_assert(
        EventQueue::Callback::fitsInline<decltype(round_done)>());
    _flows.send(legs.data(), legs.size(), _cfg.chunkBytes,
                std::move(round_done));
}

void
CollectiveEngine::RingOp::complete()
{
    // Recycle first: the completion may launch the next collective,
    // which then reuses this very record.
    engine->_freeRingOps.push_back(this);
    engine->ringDone(op, stages);
}

void
CollectiveEngine::ringDone(CollectiveOp *op, int stages)
{
    // One "rings"-track span per logical ring per operation.
    if (TraceSink *trace = stages > 0 ? eventQueue().trace() : nullptr)
        trace->addSpan("collective", "rings",
                       std::string(collectiveKindName(op->kind))
                           + " ring x" + std::to_string(stages),
                       op->started, now() - op->started, "sync");
    if (--op->ringsLeft == 0)
        runRounds(op, 0);
}

void
CollectiveEngine::finish(CollectiveOp *op)
{
    // Recycle first: the completion may launch the next collective.
    EventQueue::Callback done = std::move(op->done);
    _freeCollectiveOps.push_back(op);
    ++_opsCompleted;
    ++stats().scalar("ops");
    if (done)
        done();
}

void
CollectiveEngine::runOnRing(CollectiveOp *op, const RingPath &ring)
{
    const int stages = ring.stageCount();
    const double bytes = op->bytes / static_cast<double>(op->rings.size());
    if (stages < 2 || bytes <= 0.0) {
        auto trivial = [this, op] { ringDone(op, 0); };
        static_assert(
            EventQueue::Callback::fitsInline<decltype(trivial)>());
        eventQueue().scheduleAfter(0, std::move(trivial),
                                   name() + ".trivial_ring");
        return;
    }
    // A chunk counts the channels it has to go in 32 bits: an
    // all-reduce walks the ring's channels (nearly) twice.
    std::size_t shortest = SIZE_MAX;
    std::size_t channels = 0;
    for (const Route &route : ring.hops) {
        shortest = std::min(shortest, route.hops.size());
        channels += route.hops.size();
    }
    if (shortest == 0 || channels > kMaxRingChannels
        || ring.hops.size() != static_cast<std::size_t>(stages))
        fatal("%s: cannot run a ring of %d stages over %zu routes of "
              "%zu channels in all; ring collectives need one non-empty "
              "route per stage and at most %zu channels per ring",
              name().c_str(), stages, ring.hops.size(), channels,
              kMaxRingChannels);

    int blocks = 0;
    int hops = 0;
    double block_bytes = 0.0;
    switch (op->kind) {
      case CollectiveKind::AllGather:
      case CollectiveKind::ReduceScatter:
        blocks = stages;
        block_bytes = bytes / static_cast<double>(stages);
        hops = stages - 1;
        break;
      case CollectiveKind::AllReduce:
        blocks = stages;
        block_bytes = bytes / static_cast<double>(stages);
        hops = 2 * (stages - 1);
        break;
      case CollectiveKind::Broadcast:
        blocks = 1;
        block_bytes = bytes;
        hops = stages - 1;
        break;
    }

    const auto chunks_per_block = static_cast<std::uint64_t>(
        std::ceil(block_bytes / _cfg.chunkBytes));
    RingOp *ring_op = acquire(_ringOps, _freeRingOps);
    ring_op->engine = this;
    ring_op->op = op;
    ring_op->stages = stages;
    ring_op->channels.clear();
    for (const Route &route : ring.hops)
        ring_op->channels.insert(ring_op->channels.end(),
                                 route.hops.begin(), route.hops.end());
    ring_op->outstanding = static_cast<std::uint64_t>(blocks)
        * chunks_per_block;

    // Channels in the routes of stages [first, first + count), cyclic.
    auto channelsIn = [&ring](std::size_t first, std::size_t count) {
        std::uint32_t sum = 0;
        for (std::size_t s = first; s < first + count; ++s)
            sum += static_cast<std::uint32_t>(
                ring.hops[s % ring.hops.size()].hops.size());
        return sum;
    };
    const int root_stage = std::max(ring.stageOfDevice(op->root), 0);
    for (int b = 0; b < blocks; ++b) {
        const auto stage = static_cast<std::size_t>(
            (op->kind == CollectiveKind::Broadcast) ? root_stage : b);
        const std::uint32_t pos = channelsIn(0, stage);
        const std::uint32_t walk =
            channelsIn(stage, static_cast<std::size_t>(hops));
        double left = block_bytes;
        for (std::uint64_t c = 0; c < chunks_per_block; ++c) {
            const double this_chunk = std::min(_cfg.chunkBytes, left);
            left -= this_chunk;
            ring_op->channels[pos]->submit(
                Chunk{ring_op, pos, walk - 1, this_chunk});
        }
    }
}

std::vector<CollectiveEngine::Round>
CollectiveEngine::reduceRounds(int count)
{
    // Binomial reduce toward position 0: in round r every position
    // with (p mod 2^(r+1)) == 2^r sends its full payload to p - 2^r.
    std::vector<Round> rounds;
    for (int span = 1; span < count; span *= 2) {
        Round round;
        for (int p = span; p < count; p += 2 * span)
            round.emplace_back(p, p - span);
        rounds.push_back(std::move(round));
    }
    return rounds;
}

std::vector<CollectiveEngine::Round>
CollectiveEngine::broadcastRounds(int count)
{
    // Mirror image of the reduce: the root's payload fans out doubling
    // the covered set each round.
    std::vector<Round> rounds = reduceRounds(count);
    std::reverse(rounds.begin(), rounds.end());
    for (Round &round : rounds)
        for (auto &pair : round)
            std::swap(pair.first, pair.second);
    return rounds;
}

Tick
analyticRingLatency(CollectiveKind kind, int stages, double bytes,
                    double link_bandwidth, Tick hop_latency,
                    double chunk_bytes)
{
    if (stages < 2 || bytes <= 0.0)
        return 0;

    const double block_bytes = (kind == CollectiveKind::Broadcast)
        ? bytes
        : bytes / static_cast<double>(stages);
    const Tick block_time = transferTicks(block_bytes, link_bandwidth);

    // Pipeline granularity never exceeds the block itself.
    const double eff_chunk = std::min(chunk_bytes, block_bytes);
    const Tick chunk_time = secondsToTicks(eff_chunk / link_bandwidth);

    int steps = 0;
    switch (kind) {
      case CollectiveKind::AllGather:
      case CollectiveKind::ReduceScatter:
        steps = stages - 1;
        break;
      case CollectiveKind::AllReduce:
        steps = 2 * (stages - 1);
        break;
      case CollectiveKind::Broadcast:
        // Pipelined: the wire streams the whole payload once, trailing
        // chunks ripple through the remaining hops.
        return block_time
            + static_cast<Tick>(stages - 2)
            * (chunk_time + hop_latency)
            + hop_latency;
    }

    // Steady state: every channel carries `steps` blocks back-to-back;
    // the pipeline head needs (steps-1) chunk-hops to fill.
    return static_cast<Tick>(steps) * block_time
        + static_cast<Tick>(steps - 1) * (chunk_time + hop_latency)
        + hop_latency;
}

} // namespace mcdla
