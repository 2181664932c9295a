/**
 * @file
 * MC-DLA runtime API extensions (paper Table I).
 *
 * Mirrors the proposed libcudart extensions:
 *
 *   cudaMallocRemote(&src, size)  -> VmemRuntime::mallocRemote(size)
 *   cudaFreeRemote(&src)          -> VmemRuntime::freeRemote(ptr)
 *   cudaMemcpyAsync(..., LocalToRemote / RemoteToLocal)
 *                                 -> VmemRuntime::memcpyAsync(...)
 *
 * Allocation placement follows the driver's page policy (Fig 10): LOCAL
 * keeps an allocation within one memory-node's share; BW_AWARE splits it
 * page-round-robin across the left and right neighbors so DMA engages all
 * N high-bandwidth links.
 */

#ifndef MCDLA_VMEM_RUNTIME_HH
#define MCDLA_VMEM_RUNTIME_HH

#include <cstdint>
#include <map>

#include "memory/address_map.hh"
#include "vmem/dma_engine.hh"

namespace mcdla
{

/** Handle to a deviceremote allocation. */
using RemotePtr = std::uint64_t;
constexpr RemotePtr invalidRemotePtr = 0;

/** Device-side runtime implementing the Table I API. */
class VmemRuntime
{
  public:
    /**
     * @param space The device's enlarged address space (Fig 10).
     * @param dma The device's DMA engine.
     * @param policy Driver page-placement policy.
     */
    VmemRuntime(DeviceAddressSpace &space, DmaEngine &dma,
                PagePolicy policy)
        : _space(space), _dma(dma), _policy(policy)
    {}

    PagePolicy policy() const { return _policy; }
    DeviceAddressSpace &addressSpace() { return _space; }
    DmaEngine &dma() { return _dma; }

    /**
     * cudaMallocRemote: allocate @p bytes in deviceremote memory.
     *
     * @return Handle for later memcpy/free.
     */
    RemotePtr mallocRemote(std::uint64_t bytes);

    /** cudaFreeRemote: release a remote allocation. */
    void freeRemote(RemotePtr ptr);

    /**
     * cudaMemcpyAsync with the extended LocalToRemote / RemoteToLocal
     * directions. The copy honors the allocation's placement, engaging
     * the links of every memory-node holding its pages.
     *
     * @param ptr Remote allocation handle.
     * @param bytes Copy size (<= allocation size).
     * @param direction Offload or prefetch.
     * @param on_done Completion callback.
     */
    void memcpyAsync(RemotePtr ptr, double bytes, DmaDirection direction,
                     EventQueue::Callback on_done);

    /** Placement of a live allocation. */
    const Placement &placement(RemotePtr ptr) const;

    /** Live remote allocation count. */
    std::size_t liveAllocations() const { return _allocations.size(); }

  private:
    DeviceAddressSpace &_space;
    DmaEngine &_dma;
    PagePolicy _policy;
    RemotePtr _next = 1;
    std::map<RemotePtr, Placement> _allocations;
};

} // namespace mcdla

#endif // MCDLA_VMEM_RUNTIME_HH
