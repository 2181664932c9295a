/**
 * @file
 * System design points of the evaluation (Section V).
 */

#ifndef MCDLA_SYSTEM_SYSTEM_CONFIG_HH
#define MCDLA_SYSTEM_SYSTEM_CONFIG_HH

#include "collective/ring_collective.hh"
#include "device/device_config.hh"
#include "interconnect/fabric_config.hh"
#include "memory/address_map.hh"
#include "memory/memory_node.hh"
#include "sim/event_queue_backend.hh"
#include "sim/text.hh"
#include "vmem/offload_plan.hh"
#include "vmem/paging/paging_config.hh"

namespace mcdla
{

/** The six system design points of Figure 13 (plus one extra). */
enum class SystemDesign
{
    DcDla,       ///< Device-centric baseline (DGX-class), PCIe vmem.
    HcDla,       ///< Host-centric: 3 links/device to CPU memory.
    McDlaS,      ///< Memory-centric, star interconnect (Fig 7b).
    McDlaL,      ///< Memory-centric ring, LOCAL page policy.
    McDlaB,      ///< Memory-centric ring, BW_AWARE page policy.
    DcDlaOracle, ///< DC-DLA with infinite device memory (unbuildable).
    /**
     * The naive Fig 7(a) derivative interconnect (two 8-hop device
     * rings + one 24-hop ring). Not part of the paper's evaluation
     * set; used by the topology ablation bench.
     */
    McDlaSA,
    /**
     * Switched MC-DLA (Fig 15 / Section VI): NVSwitch-class planes let
     * the ring design scale beyond eight devices. Uses the BW_AWARE
     * page policy. Not part of the paper's evaluation set.
     */
    McDlaX,
};

inline constexpr TokenRow<SystemDesign> kSystemDesignRows[] = {
    {SystemDesign::DcDla, "dc", "", "DC-DLA"},
    {SystemDesign::HcDla, "hc", "", "HC-DLA"},
    {SystemDesign::McDlaS, "mc-s", "", "MC-DLA(S)"},
    {SystemDesign::McDlaL, "mc-l", "", "MC-DLA(L)"},
    {SystemDesign::McDlaB, "mc-b", "", "MC-DLA(B)"},
    {SystemDesign::DcDlaOracle, "oracle", "", "DC-DLA(O)"},
    {SystemDesign::McDlaSA, "mc-sa", "", "MC-DLA(SA)"},
    {SystemDesign::McDlaX, "mc-x", "", "MC-DLA(X)"},
};

/** --design vocabulary; name() is the paper's label ("MC-DLA(B)"). */
inline constexpr TokenTable<SystemDesign> kSystemDesigns{
    "design", kSystemDesignRows};

/** Canonical CLI token of a design (perfbench/ calls it by name). */
inline const char *
systemDesignToken(SystemDesign design)
{
    return kSystemDesigns.token(design);
}

/** All six designs in the paper's plotting order. */
inline constexpr SystemDesign kAllDesigns[] = {
    SystemDesign::DcDla,       SystemDesign::HcDla,
    SystemDesign::McDlaS,      SystemDesign::McDlaL,
    SystemDesign::McDlaB,      SystemDesign::DcDlaOracle,
};

/** Whether the design virtualizes memory over a backing store. */
inline bool
designVirtualizesMemory(SystemDesign design)
{
    return design != SystemDesign::DcDlaOracle;
}

/** Whether the backing store is host DRAM (vs memory-nodes). */
inline bool
designUsesHostMemory(SystemDesign design)
{
    return design == SystemDesign::DcDla || design == SystemDesign::HcDla;
}

/** Whether memory-nodes are present in the device-side interconnect. */
inline bool
designHasMemoryNodes(SystemDesign design)
{
    return design == SystemDesign::McDlaS
        || design == SystemDesign::McDlaL
        || design == SystemDesign::McDlaB
        || design == SystemDesign::McDlaSA
        || design == SystemDesign::McDlaX;
}

/** Full system configuration. */
struct SystemConfig
{
    SystemDesign design = SystemDesign::McDlaB;

    /** Device-node parameters (Table II defaults). */
    DeviceConfig device;

    /** Interconnect parameters; numDevices lives here. */
    FabricConfig fabric;

    /** Memory-node board (Table II: 256 GB/s; Table IV DIMM options). */
    MemoryNodeConfig memNode;

    /** Host DRAM capacity visible as backing store (DC/HC designs). */
    std::uint64_t hostMemoryCapacity = 768 * kGiB;

    /** Footnote-4 recompute optimization. */
    bool recomputeCheapLayers = true;

    /** DMA flow chunk granularity. */
    double dmaChunkBytes = 512.0 * 1024.0;

    /**
     * cDMA-style activation compression applied to virtualization
     * traffic (Rhu et al., HPCA'18): the wire moves bytes/ratio. 1.0
     * disables compression; the paper's sensitivity study uses the
     * reported average 2.6x on CNN activations.
     */
    double dmaCompressionRatio = 1.0;

    /**
     * Uniform scale on per-layer compute times (forward, backward,
     * weight update). 1.0 = Table III timings. Used by the what-if
     * validation path: a causal-DAG "compute:0.5" prediction is
     * checked against an actual re-run at computeTimeScale = 0.5.
     */
    double computeTimeScale = 1.0;

    /**
     * Priority structure of the driving EventQueue (`--event-queue`).
     * Both backends produce identical event order and outputs; the
     * calendar queue trades worst-case O(log n) bounds for O(1)
     * amortized push/pop on uniform tick distributions.
     */
    EventQueueBackendKind eventQueueBackend =
        EventQueueBackendKind::Heap;

    /** Collective pipeline chunk granularity. */
    double collectiveChunkBytes = 128.0 * 1024.0;

    /** Collective algorithm family (--collective); Ring = paper. */
    CollectiveAlgorithm collectiveAlgorithm = CollectiveAlgorithm::Ring;

    /** Board size of the hierarchical collective algorithm. */
    int collectiveBoardDevices = 8;

    /**
     * Paged device-memory policies: how stash fills are scheduled
     * (static plan / on-demand faulting / history prefetch), how
     * victims are chosen under HBM pressure, and the prefetch
     * lookahead window.
     */
    PagingConfig paging;

    /** vDNN policy implied by the design. */
    OffloadPolicy
    offloadPolicy() const
    {
        OffloadPolicy p;
        p.virtualizeMemory = designVirtualizesMemory(design);
        p.recomputeCheapLayers = recomputeCheapLayers;
        return p;
    }

    /** Driver page-placement policy implied by the design (Fig 10). */
    PagePolicy
    pagePolicy() const
    {
        return design == SystemDesign::McDlaB
                || design == SystemDesign::McDlaX
            ? PagePolicy::BwAware
            : PagePolicy::Local;
    }
};

} // namespace mcdla

#endif // MCDLA_SYSTEM_SYSTEM_CONFIG_HH
