/**
 * @file
 * System composition.
 */

#include "system/system.hh"

#include "sim/logging.hh"

namespace mcdla
{

System::System(EventQueue &eq, SystemConfig cfg)
    : _eq(eq), _cfg(std::move(cfg))
{
    // Keep the fabric's link parameters in sync with the device config
    // (Table II: N links of B GB/s per node).
    _cfg.fabric.linkBandwidth = _cfg.device.linkBandwidth;
    _cfg.fabric.numRings = _cfg.device.numLinks / 2;

    _cfg.fabric.validate();
    if (designHasMemoryNodes(_cfg.design))
        _cfg.memNode.validate();

    if (_cfg.fabric.topology != TopologyKind::Design) {
        // Interconnect override: rewire the memory-centric node set
        // through a generic Topology generator. Host-backed designs
        // keep their fixed PCIe attachment — there is no meaningful
        // mesh of host links — so the override is rejected there.
        if (!designHasMemoryNodes(_cfg.design))
            fatal("--topology %s requires a memory-centric design "
                  "(%s has no memory-nodes to rewire)",
                  kTopologyKinds.token(_cfg.fabric.topology),
                  kSystemDesigns.name(_cfg.design));
        _fabric = buildTopologyFabric(eq, _cfg.fabric,
                                      _cfg.fabric.topology);
    } else {
        switch (_cfg.design) {
          case SystemDesign::DcDla:
            _fabric = buildDcdlaFabric(eq, _cfg.fabric, true);
            break;
          case SystemDesign::DcDlaOracle:
            _fabric = buildDcdlaFabric(eq, _cfg.fabric, false);
            break;
          case SystemDesign::HcDla:
            _fabric = buildHcdlaFabric(eq, _cfg.fabric);
            break;
          case SystemDesign::McDlaS:
            _fabric = buildMcdlaStarFabric(eq, _cfg.fabric);
            break;
          case SystemDesign::McDlaSA:
            _fabric = buildMcdlaStarAFabric(eq, _cfg.fabric);
            break;
          case SystemDesign::McDlaL:
          case SystemDesign::McDlaB:
            _fabric = buildMcdlaRingFabric(eq, _cfg.fabric);
            break;
          case SystemDesign::McDlaX:
            _fabric = buildMcdlaSwitchFabric(eq, _cfg.fabric);
            break;
        }
    }

    CollectiveConfig ccfg;
    ccfg.chunkBytes = _cfg.collectiveChunkBytes;
    ccfg.algorithm = _cfg.collectiveAlgorithm;
    ccfg.boardDevices = _cfg.collectiveBoardDevices;
    _collectives = std::make_unique<CollectiveEngine>(
        eq, _fabric->name() + ".nccl", *_fabric, ccfg);

    // Generic topologies size each device's remote region by how many
    // devices share the target memory-node (a dedicated mesh
    // memory-node exposes its full board; a ring neighbor is split).
    std::map<int, int> target_shares;
    if (_cfg.fabric.topology != TopologyKind::Design) {
        for (int d = 0; d < _cfg.fabric.numDevices; ++d)
            for (const VmemPath &path : _fabric->vmemPaths(d))
                if (path.targetIndex >= 0)
                    ++target_shares[path.targetIndex];
    }

    const int n = _cfg.fabric.numDevices;
    for (int d = 0; d < n; ++d) {
        const std::string dev_name = "dev" + std::to_string(d);
        _devices.push_back(std::make_unique<DeviceNode>(
            eq, dev_name, _cfg.device));
        _dmas.push_back(std::make_unique<DmaEngine>(
            eq, dev_name + ".dma", _fabric->vmemPaths(d),
            _cfg.dmaChunkBytes));

        // Fig 10 address space: devicelocal at the bottom, remote
        // regions above. The oracle design gets "infinite" local memory.
        const std::uint64_t local_cap =
            _cfg.design == SystemDesign::DcDlaOracle
            ? (1ULL << 60)
            : _cfg.device.memCapacity;
        std::vector<RemoteRegion> regions;
        for (const VmemPath &path : _fabric->vmemPaths(d)) {
            RemoteRegion r;
            r.targetIndex = path.targetIndex;
            if (path.targetIndex < 0) {
                r.capacity = _cfg.hostMemoryCapacity;
            } else if (!target_shares.empty()) {
                // Generic topology: split the board across the devices
                // that reach it.
                r.capacity = _cfg.memNode.capacity()
                    / static_cast<std::uint64_t>(
                        target_shares[path.targetIndex]);
            } else if (designHasMemoryNodes(_cfg.design)
                       && _cfg.design != SystemDesign::McDlaS
                       && _cfg.design != SystemDesign::McDlaSA) {
                // Ring-structured designs (direct or switched).
                // Ring design: each neighbor owns half the board.
                r.capacity = _cfg.memNode.capacity() / 2;
            } else {
                r.capacity = _cfg.memNode.capacity();
            }
            regions.push_back(r);
        }
        _spaces.push_back(std::make_unique<DeviceAddressSpace>(
            dev_name, local_cap, std::move(regions)));
        _runtimes.push_back(std::make_unique<VmemRuntime>(
            *_spaces.back(), *_dmas.back(), _cfg.pagePolicy()));
    }
}

std::uint64_t
System::totalExposedMemory() const
{
    std::uint64_t total = 0;
    for (const auto &space : _spaces)
        total += space->totalCapacity();
    return total;
}

void
System::resetStats()
{
    _fabric->resetStats();
    for (auto &dev : _devices) {
        dev->resetStats();
        dev->resetOccupancy();
    }
}

} // namespace mcdla
