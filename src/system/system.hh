/**
 * @file
 * System: one fully composed intra-node design point.
 *
 * Owns the event queue's component graph for a single simulated node:
 * the fabric (built per design), the device-nodes, per-device DMA engines
 * and address spaces, the Table I runtimes, and the shared collective
 * engine. TrainingSession drives a System through training iterations.
 */

#ifndef MCDLA_SYSTEM_SYSTEM_HH
#define MCDLA_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "collective/ring_collective.hh"
#include "device/device_node.hh"
#include "interconnect/fabrics.hh"
#include "system/system_config.hh"
#include "vmem/runtime.hh"

namespace mcdla
{

/** A composed system design point. */
class System
{
  public:
    System(EventQueue &eq, SystemConfig cfg);

    const SystemConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _eq; }
    int numDevices() const { return _cfg.fabric.numDevices; }

    Fabric &fabric() { return *_fabric; }
    const Fabric &fabric() const { return *_fabric; }

    CollectiveEngine &collectives() { return *_collectives; }

    DeviceNode &device(int i) { return *_devices.at(
        static_cast<std::size_t>(i)); }
    DmaEngine &dma(int i) { return *_dmas.at(
        static_cast<std::size_t>(i)); }
    DeviceAddressSpace &addressSpace(int i) { return *_spaces.at(
        static_cast<std::size_t>(i)); }
    VmemRuntime &runtime(int i) { return *_runtimes.at(
        static_cast<std::size_t>(i)); }

    /** Whether devices have a backing store for virtualization. */
    bool
    hasBackingStore() const
    {
        return designVirtualizesMemory(_cfg.design);
    }

    /** Total memory capacity exposed to all devices (local + remote). */
    std::uint64_t totalExposedMemory() const;

  private:
    EventQueue &_eq;
    SystemConfig _cfg;
    std::unique_ptr<Fabric> _fabric;
    std::unique_ptr<CollectiveEngine> _collectives;
    std::vector<std::unique_ptr<DeviceNode>> _devices;
    std::vector<std::unique_ptr<DmaEngine>> _dmas;
    std::vector<std::unique_ptr<DeviceAddressSpace>> _spaces;
    std::vector<std::unique_ptr<VmemRuntime>> _runtimes;
};

} // namespace mcdla

#endif // MCDLA_SYSTEM_SYSTEM_HH
