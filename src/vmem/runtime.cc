/**
 * @file
 * VmemRuntime implementation.
 */

#include "vmem/runtime.hh"

#include "sim/logging.hh"

namespace mcdla
{

RemotePtr
VmemRuntime::mallocRemote(std::uint64_t bytes)
{
    Placement placement = _space.mallocRemote(bytes, _policy);
    const RemotePtr ptr = _next++;
    _allocations.emplace(ptr, std::move(placement));
    return ptr;
}

void
VmemRuntime::freeRemote(RemotePtr ptr)
{
    auto it = _allocations.find(ptr);
    if (it == _allocations.end())
        fatal("cudaFreeRemote of unknown handle %llu",
              static_cast<unsigned long long>(ptr));
    _space.free(it->second);
    _allocations.erase(it);
}

void
VmemRuntime::memcpyAsync(RemotePtr ptr, double bytes,
                         DmaDirection direction,
                         EventQueue::Callback on_done)
{
    const Placement &p = placement(ptr);
    if (bytes > static_cast<double>(p.bytes))
        fatal("cudaMemcpyAsync of %s exceeds allocation of %s",
              formatBytes(bytes).c_str(),
              formatBytes(static_cast<double>(p.bytes)).c_str());
    _dma.transfer(bytes, direction, p.fractions, std::move(on_done));
}

const Placement &
VmemRuntime::placement(RemotePtr ptr) const
{
    auto it = _allocations.find(ptr);
    if (it == _allocations.end())
        fatal("unknown deviceremote handle %llu",
              static_cast<unsigned long long>(ptr));
    return it->second;
}

} // namespace mcdla
