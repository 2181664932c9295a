/**
 * @file
 * CollectiveEngine implementation.
 */

#include "collective/ring_collective.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

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

struct AlgoToken
{
    CollectiveAlgorithm algo;
    const char *token;
};

/** The one table every direction of the round-trip reads. */
constexpr AlgoToken kAlgoTokens[] = {
    {CollectiveAlgorithm::Ring, "ring"},
    {CollectiveAlgorithm::Tree, "tree"},
    {CollectiveAlgorithm::Hierarchical, "hierarchical"},
};

} // anonymous namespace

CollectiveAlgorithm
parseCollectiveAlgorithm(const std::string &name)
{
    for (const AlgoToken &entry : kAlgoTokens)
        if (name == entry.token)
            return entry.algo;
    if (name == "hier") // common shorthand
        return CollectiveAlgorithm::Hierarchical;
    fatal("unknown collective algorithm '%s' (%s)", name.c_str(),
          collectiveAlgorithmTokenList().c_str());
}

const char *
collectiveAlgorithmToken(CollectiveAlgorithm algo)
{
    for (const AlgoToken &entry : kAlgoTokens)
        if (entry.algo == algo)
            return entry.token;
    panic("collective algorithm %d has no token",
          static_cast<int>(algo));
}

const std::vector<CollectiveAlgorithm> &
allCollectiveAlgorithms()
{
    static const std::vector<CollectiveAlgorithm> algos = [] {
        std::vector<CollectiveAlgorithm> all;
        for (const AlgoToken &entry : kAlgoTokens)
            all.push_back(entry.algo);
        return all;
    }();
    return algos;
}

const std::string &
collectiveAlgorithmTokenList()
{
    static const std::string list = [] {
        std::string tokens;
        for (const AlgoToken &entry : kAlgoTokens) {
            if (!tokens.empty())
                tokens += ", ";
            tokens += entry.token;
        }
        return tokens;
    }();
    return list;
}

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
                         Handler on_done, int root)
{
    launchOn(_rings, kind, total_bytes, std::move(on_done), root);
}

void
CollectiveEngine::launchOn(const std::vector<const RingPath *> &rings,
                           CollectiveKind kind, double total_bytes,
                           Handler on_done, int root)
{
    // Everything scheduled while launching — degenerate noops and the
    // first wave of chunk submissions — belongs to the collective
    // subsystem; chained hops inherit the context from their parents.
    CausalScope causal_scope(eventQueue().causalRecorder(),
                             WaitKind::Collective,
                             CausalCtx::Collective, name());
    _bytesLaunched += total_bytes;
    stats().scalar("bytes") += total_bytes;

    auto complete = [this, on_done = std::move(on_done)] {
        ++_opsCompleted;
        ++stats().scalar("ops");
        if (on_done)
            on_done();
    };

    if (total_bytes <= 0.0 || rings.empty()) {
        // Degenerate: nothing to move (or nowhere to move it).
        eventQueue().scheduleAfter(0, complete, name() + ".noop");
        return;
    }

    if (_cfg.algorithm != CollectiveAlgorithm::Ring) {
        // Tree-structured algorithms operate on the participating
        // devices (ring order) and route transfers over the topology
        // graph instead of walking the rings.
        const std::vector<int> devices = rings[0]->deviceMembers();
        if (devices.size() < 2) {
            eventQueue().scheduleAfter(0, complete,
                                       name() + ".noop");
            return;
        }
        runTreeLike(devices, kind, total_bytes, root,
                    std::move(complete));
        return;
    }

    const double share = total_bytes / static_cast<double>(rings.size());
    auto rings_left = std::make_shared<std::size_t>(rings.size());
    auto ring_done = std::make_shared<Handler>(
        [rings_left, complete = std::move(complete)] {
            if (--*rings_left == 0)
                complete();
        });

    for (const RingPath *ring : rings) {
        const int root_stage = std::max(ring->stageOfDevice(root), 0);
        runOnRing(*ring, kind, share, root_stage, ring_done);
    }
}

CollectiveEngine::RingOp *
CollectiveEngine::acquireOp()
{
    if (_freeOps.empty()) {
        _ops.emplace_back();
        _ops.back().engine = this;
        return &_ops.back();
    }
    RingOp *op = _freeOps.back();
    _freeOps.pop_back();
    return op;
}

void
CollectiveEngine::RingOp::complete()
{
    // Recycle first: the handler may launch the next collective, which
    // then reuses this very record.
    const std::shared_ptr<Handler> fire = std::move(done);
    engine->_freeOps.push_back(this);
    (*fire)();
}

void
CollectiveEngine::runOnRing(const RingPath &ring, CollectiveKind kind,
                            double bytes, int root_stage,
                            const std::shared_ptr<Handler> &ring_done)
{
    const int stages = ring.stageCount();
    if (stages < 2 || bytes <= 0.0) {
        eventQueue().scheduleAfter(0, [ring_done] { (*ring_done)(); },
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

    // When tracing, wrap the per-ring completion in a span emitter:
    // one "rings"-track span per logical ring per operation.
    std::shared_ptr<Handler> completion = ring_done;
    if (TraceSink *trace = eventQueue().trace()) {
        const Tick launched = now();
        const std::string label = std::string(collectiveKindName(kind))
            + " ring x" + std::to_string(stages);
        completion = std::make_shared<Handler>(
            [this, trace, launched, label, ring_done] {
                trace->addSpan("collective", "rings", label, launched,
                               now() - launched, "sync");
                (*ring_done)();
            });
    }

    int blocks = 0;
    int hops = 0;
    double block_bytes = 0.0;
    switch (kind) {
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
    RingOp *op = acquireOp();
    op->channels.clear();
    for (const Route &route : ring.hops)
        op->channels.insert(op->channels.end(), route.hops.begin(),
                            route.hops.end());
    op->outstanding = static_cast<std::uint64_t>(blocks)
        * chunks_per_block;
    op->done = std::move(completion);

    // Channels in the routes of stages [first, first + count), cyclic.
    auto channelsIn = [&ring](std::size_t first, std::size_t count) {
        std::uint32_t sum = 0;
        for (std::size_t s = first; s < first + count; ++s)
            sum += static_cast<std::uint32_t>(
                ring.hops[s % ring.hops.size()].hops.size());
        return sum;
    };
    for (int b = 0; b < blocks; ++b) {
        const auto stage = static_cast<std::size_t>(
            (kind == CollectiveKind::Broadcast) ? root_stage : b);
        const std::uint32_t pos = channelsIn(0, stage);
        const std::uint32_t walk =
            channelsIn(stage, static_cast<std::size_t>(hops));
        double left = block_bytes;
        for (std::uint64_t c = 0; c < chunks_per_block; ++c) {
            const double this_chunk = std::min(_cfg.chunkBytes, left);
            left -= this_chunk;
            op->channels[pos]->submit(
                Chunk{op, pos, walk - 1, this_chunk});
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

void
CollectiveEngine::runRounds(std::shared_ptr<std::vector<Round>> rounds,
                            std::size_t index, double bytes,
                            std::shared_ptr<Handler> done)
{
    while (index < rounds->size() && (*rounds)[index].empty())
        ++index;
    if (index >= rounds->size()) {
        (*done)();
        return;
    }
    const Round &round = (*rounds)[index];
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
        legs.push_back({&routes.back(), bytes});
    }
    const Tick launched = now();
    _flows.send(legs.data(), legs.size(), _cfg.chunkBytes,
                [this, rounds, index, bytes, done, launched] {
                    if (TraceSink *trace = eventQueue().trace()) {
                        const std::string label = "round "
                            + std::to_string(index + 1) + "/"
                            + std::to_string(rounds->size()) + " ("
                            + std::to_string((*rounds)[index].size())
                            + " xfer)";
                        trace->addSpan("collective", "rounds", label,
                                       launched, now() - launched,
                                       "sync");
                    }
                    runRounds(rounds, index + 1, bytes, done);
                });
}

RingPath
CollectiveEngine::leaderRing(const std::vector<int> &leaders) const
{
    RingPath ring;
    if (leaders.size() < 2)
        return ring;
    for (std::size_t i = 0; i < leaders.size(); ++i) {
        const int src = leaders[i];
        const int dst = leaders[(i + 1) % leaders.size()];
        Route hop = _fabric.deviceRoute(src, dst);
        if (!hop.valid())
            fatal("%s: no route between board leaders %d and %d",
                  name().c_str(), src, dst);
        ring.stages.push_back(RingStage{true, src});
        ring.hops.push_back(std::move(hop));
    }
    return ring;
}

void
CollectiveEngine::runTreeLike(const std::vector<int> &devices,
                              CollectiveKind kind, double bytes,
                              int root, Handler done)
{
    const int m = static_cast<int>(devices.size());
    auto done_ptr = std::make_shared<Handler>(std::move(done));

    // Participant order; broadcast rotates so the root leads the tree.
    std::vector<int> order = devices;
    if (kind == CollectiveKind::Broadcast) {
        auto it = std::find(order.begin(), order.end(), root);
        if (it != order.end())
            std::rotate(order.begin(), it, order.end());
    }

    auto map_rounds = [&order](const std::vector<Round> &position_rounds,
                               std::vector<Round> &out) {
        for (const Round &round : position_rounds) {
            Round mapped;
            for (const auto &[src, dst] : round)
                mapped.emplace_back(
                    order[static_cast<std::size_t>(src)],
                    order[static_cast<std::size_t>(dst)]);
            out.push_back(std::move(mapped));
        }
    };

    const int board = std::max(1, std::min(_cfg.boardDevices, m));
    const bool flat = _cfg.algorithm == CollectiveAlgorithm::Tree
        || kind == CollectiveKind::Broadcast || board >= m;

    if (flat) {
        auto rounds = std::make_shared<std::vector<Round>>();
        if (kind == CollectiveKind::AllReduce
            || kind == CollectiveKind::ReduceScatter)
            map_rounds(reduceRounds(m), *rounds);
        if (kind != CollectiveKind::ReduceScatter)
            map_rounds(broadcastRounds(m), *rounds);
        runRounds(std::move(rounds), 0, bytes, std::move(done_ptr));
        return;
    }

    // Hierarchical: consecutive boards reduce/broadcast internally
    // through binomial trees; board leaders exchange over an
    // inter-board ring embedded on the topology's shortest paths.
    std::vector<int> leaders;
    auto intra_reduce = std::make_shared<std::vector<Round>>();
    auto intra_bcast = std::make_shared<std::vector<Round>>();
    for (int start = 0; start < m; start += board) {
        const int size = std::min(board, m - start);
        std::vector<int> member_order(
            order.begin() + start, order.begin() + start + size);
        leaders.push_back(member_order.front());

        // Merge each board's round r into the global round r so the
        // boards progress concurrently between barriers.
        auto merge = [&member_order](const std::vector<Round> &in,
                                     std::vector<Round> &out) {
            if (out.size() < in.size())
                out.resize(in.size());
            for (std::size_t r = 0; r < in.size(); ++r)
                for (const auto &[src, dst] : in[r])
                    out[r].emplace_back(
                        member_order[static_cast<std::size_t>(src)],
                        member_order[static_cast<std::size_t>(dst)]);
        };
        merge(reduceRounds(size), *intra_reduce);
        merge(broadcastRounds(size), *intra_bcast);
    }

    auto ring = std::make_shared<RingPath>(leaderRing(leaders));
    auto run_leader_phase = [this, ring, kind,
                             bytes](Handler next) {
        // The shared_ptr rides in the completion handler — it is the
        // last reference dropped, keeping the embedded ring alive
        // while chunks are in flight.
        auto ring_done = std::make_shared<Handler>(
            [ring, next = std::move(next)] { next(); });
        runOnRing(*ring, kind, bytes, /*root_stage=*/0, ring_done);
    };

    switch (kind) {
      case CollectiveKind::AllReduce:
        runRounds(intra_reduce, 0, bytes,
                  std::make_shared<Handler>(
                      [this, run_leader_phase, intra_bcast, bytes,
                       done_ptr]() mutable {
                          run_leader_phase([this, intra_bcast, bytes,
                                            done_ptr] {
                              runRounds(intra_bcast, 0, bytes,
                                        done_ptr);
                          });
                      }));
        return;
      case CollectiveKind::ReduceScatter:
        runRounds(intra_reduce, 0, bytes,
                  std::make_shared<Handler>(
                      [run_leader_phase, done_ptr]() mutable {
                          run_leader_phase(
                              [done_ptr] { (*done_ptr)(); });
                      }));
        return;
      case CollectiveKind::AllGather:
        run_leader_phase([this, intra_bcast, bytes, done_ptr] {
            runRounds(intra_bcast, 0, bytes, done_ptr);
        });
        return;
      case CollectiveKind::Broadcast:
        panic("broadcast reaches the flat tree path above");
    }
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
