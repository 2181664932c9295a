/**
 * @file
 * Per-device DMA engine for memory-virtualization traffic.
 *
 * The engine owns the device's vmem paths (from the Fabric) and moves
 * bulk payloads as chunked flows: offloads (device -> backing store) and
 * prefetches (backing store -> device). A placement's per-target traffic
 * fractions — produced by the page allocator (LOCAL vs BW_AWARE) — decide
 * how much of each payload rides each path; within a path, chunks
 * round-robin across its parallel routes (one per ring link). Each
 * transfer is one multi-leg flow of the engine's own FlowPool, so its
 * in-flight state, completion included, is released with the engine.
 */

#ifndef MCDLA_VMEM_DMA_ENGINE_HH
#define MCDLA_VMEM_DMA_ENGINE_HH

#include <memory>
#include <vector>

#include "interconnect/fabric.hh"
#include "sim/sim_object.hh"

namespace mcdla
{

/** DMA transfer direction (Table I's extended cudaMemcpyAsync). */
enum class DmaDirection
{
    LocalToRemote, ///< Offload: devicelocal -> backing store.
    RemoteToLocal, ///< Prefetch: backing store -> devicelocal.
};

/** One device's software-managed DMA engine. */
class DmaEngine : public SimObject
{
  public:
    /**
     * @param eq Driving event queue.
     * @param name Instance name.
     * @param paths vmem paths of this device (may be empty for designs
     *              without a backing store, e.g. the oracle).
     * @param chunk_bytes Flow chunk granularity.
     */
    DmaEngine(EventQueue &eq, std::string name,
              const std::vector<VmemPath> &paths,
              double chunk_bytes = kDefaultChunkBytes);

    /** Whether this device has any backing store attached. */
    bool hasBackingStore() const { return !_paths.empty(); }

    std::size_t pathCount() const { return _paths.size(); }

    /**
     * Move @p bytes in @p direction.
     *
     * @param bytes Payload size.
     * @param direction Offload or prefetch.
     * @param fractions Per-path traffic shares (must align with
     *                  pathCount() and sum to ~1); empty means "spread
     *                  evenly across all paths".
     * @param on_done Completion callback; null runs nothing (a
     *        transfer with nothing to move still schedules its
     *        completion event).
     */
    void transfer(double bytes, DmaDirection direction,
                  const std::vector<double> &fractions,
                  EventQueue::Callback on_done);

    /** Convenience: even spread. */
    void
    transfer(double bytes, DmaDirection direction,
             EventQueue::Callback on_done)
    {
        transfer(bytes, direction, {}, std::move(on_done));
    }

    double bytesOffloaded() const { return _bytesOffloaded; }
    double bytesPrefetched() const { return _bytesPrefetched; }

  private:
    /** Complete a transfer that moves nothing in a zero-delay event
        labelled @p what. */
    void completeEmpty(EventQueue::Callback on_done, const char *what);

    std::vector<VmemPath> _paths;
    double _chunkBytes;
    FlowPool _flows;
    /// Leg list of the transfer being issued (reused: no allocation).
    std::vector<FlowLeg> _legs;
    double _bytesOffloaded = 0.0;
    double _bytesPrefetched = 0.0;
};

} // namespace mcdla

#endif // MCDLA_VMEM_DMA_ENGINE_HH
