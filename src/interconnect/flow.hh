/**
 * @file
 * Bulk flows: chunked transfers over channel routes.
 *
 * A Route is an ordered channel sequence traversed store-and-forward; a
 * flow moves one or more legs, each a payload over its own parallel
 * routes, in fixed-size chunks and reports one completion. Flows come
 * from a FlowPool owned by the engine that sends them: DmaEngine (one
 * leg per vmem path), TrainingSession (pipeline boundary transfers) and
 * CollectiveEngine (tree rounds). Ring collectives submit their chunks
 * to the channels directly.
 *
 * A flow's record is the ChunkPath of all its chunks: the routes of
 * every leg concatenated into one channel list. A chunk starts at its
 * route's first channel with that route's remaining length to go, and
 * the flow completes in the event of its latest last-hop delivery,
 * where the record's EventQueue::Callback runs.
 */

#ifndef MCDLA_INTERCONNECT_FLOW_HH
#define MCDLA_INTERCONNECT_FLOW_HH

#include <memory>
#include <vector>

#include "interconnect/channel.hh"

namespace mcdla
{

/** An ordered multi-hop path of channels. */
struct Route
{
    std::vector<Channel *> hops;

    bool valid() const { return !hops.empty(); }
};

/** Default DMA chunk used to interleave concurrent bulk flows. */
constexpr double kDefaultChunkBytes = 512.0 * 1024.0;

/** One leg of a flow: @p bytes over the parallel @p routes. */
struct FlowLeg
{
    const std::vector<Route> *routes;
    double bytes;
};

/**
 * Sends flows and owns their in-flight records, recycled so that
 * steady-state traffic allocates nothing. A flow's completion is an
 * EventQueue::Callback moved into its record, so one that fits inline
 * costs no allocation either; a null completion runs nothing.
 * Destroying the pool releases the completions of flows still in
 * flight; their chunks must not be delivered afterwards.
 */
class FlowPool
{
  public:
    FlowPool();
    ~FlowPool();
    FlowPool(const FlowPool &) = delete;
    FlowPool &operator=(const FlowPool &) = delete;

    /**
     * Send @p count legs as one flow. Every chunk is enqueued now, leg
     * by leg (channel FIFOs provide the backpressure); within a leg,
     * chunks round-robin over its routes, which must be non-empty.
     * @p on_done fires in the event of the latest chunk delivery, or
     * at once if no leg has bytes.
     */
    void send(const FlowLeg *legs, std::size_t count, double chunk_bytes,
              EventQueue::Callback on_done);

    /** One-leg flow: @p bytes over @p routes. */
    void
    send(const std::vector<Route> &routes, double bytes,
         double chunk_bytes, EventQueue::Callback on_done)
    {
        const FlowLeg leg{&routes, bytes};
        send(&leg, 1, chunk_bytes, std::move(on_done));
    }

  private:
    /** Bookkeeping and chunk path of one in-flight flow (flow.cc). */
    struct Record;

    std::vector<std::unique_ptr<Record>> _all;
    std::vector<Record *> _free;
};

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_FLOW_HH
