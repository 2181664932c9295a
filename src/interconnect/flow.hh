/**
 * @file
 * Bulk-flow helpers: chunked transfers over channel routes.
 *
 * A Route is an ordered channel sequence traversed store-and-forward; a
 * flow moves a payload over one or more parallel routes in fixed-size
 * chunks (round-robin across routes), reporting a single completion when
 * the last chunk of the payload is delivered. This is the DMA abstraction
 * used for memory-virtualization traffic, pipeline boundary transfers and
 * the rounds of tree collectives. Ring collectives submit their chunks to
 * the channels directly (CollectiveEngine).
 */

#ifndef MCDLA_INTERCONNECT_FLOW_HH
#define MCDLA_INTERCONNECT_FLOW_HH

#include <functional>
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

/**
 * Transfer @p bytes over @p routes, chunked and round-robined.
 *
 * All chunks are enqueued immediately (channel FIFOs provide the
 * backpressure); completion fires when every chunk has been delivered.
 *
 * @param routes Parallel routes; must be non-empty.
 * @param bytes Total payload.
 * @param chunk_bytes Chunk granularity (> 0).
 * @param on_done Completion callback (may be empty).
 */
void sendFlow(const std::vector<Route> &routes, double bytes,
              double chunk_bytes, std::function<void()> on_done);

/** sendFlow with the default chunk size. */
inline void
sendFlow(const std::vector<Route> &routes, double bytes,
         std::function<void()> on_done)
{
    sendFlow(routes, bytes, kDefaultChunkBytes, std::move(on_done));
}

} // namespace mcdla

#endif // MCDLA_INTERCONNECT_FLOW_HH
