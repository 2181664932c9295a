/**
 * @file
 * Shared vocabulary of the paged device-memory subsystem: policy
 * selectors, the paging knobs carried by SystemConfig, and the
 * per-iteration page-access schedule the TrainingSession derives from
 * its op program.
 *
 * The subsystem generalizes the original hardwired vDNN behavior
 * (unconditionally offload every stashed tensor after its last forward
 * use, prefetch with a fixed lookahead) into interchangeable prefetch
 * and eviction policies over a capacity-tracked page table, so the
 * simulator can compare static offload plans against fault-driven
 * on-demand paging and history-based prefetching.
 */

#ifndef MCDLA_VMEM_PAGING_PAGING_CONFIG_HH
#define MCDLA_VMEM_PAGING_PAGING_CONFIG_HH

#include <cstddef>
#include <vector>

#include "dnn/layer.hh"
#include "sim/text.hh"

namespace mcdla
{

/** How fills (backing store -> HBM) are scheduled. */
enum class PrefetchPolicyKind
{
    /**
     * Reproduce the compile-time vDNN plan exactly: writeback each
     * stashed tensor after its last forward use and prefetch it when
     * its backward consumer enters the lookahead window. Capacity
     * pressure is ignored (the plan is assumed feasible).
     */
    StaticPlan,
    /** No prefetch: consuming ops fault and stall on demand fills. */
    OnDemand,
    /**
     * Fault-driven while recording the access sequence (until a
     * non-empty sequence exists); steady-state iterations prefetch
     * ahead of the recorded sequence.
     */
    History,
};

/** How victims are chosen when HBM pressure forces an eviction. */
enum class EvictionPolicyKind
{
    Lru,            ///< Least-recently-touched resident page group.
    LastForwardUse, ///< Prefer pages whose last forward use retired
                    ///< longest ago (vDNN's heuristic; Belady-like for
                    ///< the fwd/bwd stack access pattern).
};

inline constexpr TokenRow<PrefetchPolicyKind> kPrefetchPolicyKindRows[] = {
    {PrefetchPolicyKind::StaticPlan, "static-plan"},
    {PrefetchPolicyKind::OnDemand, "on-demand"},
    {PrefetchPolicyKind::History, "history"},
};

/** --prefetch-policy vocabulary. */
inline constexpr TokenTable<PrefetchPolicyKind> kPrefetchPolicyKinds{
    "prefetch policy", kPrefetchPolicyKindRows};

inline constexpr TokenRow<EvictionPolicyKind> kEvictionPolicyKindRows[] = {
    {EvictionPolicyKind::Lru, "lru"},
    {EvictionPolicyKind::LastForwardUse, "last-fwd-use"},
};

/** --eviction-policy vocabulary. */
inline constexpr TokenTable<EvictionPolicyKind> kEvictionPolicyKinds{
    "eviction policy", kEvictionPolicyKindRows};

/** Paging knobs carried by SystemConfig. */
struct PagingConfig
{
    PrefetchPolicyKind prefetch = PrefetchPolicyKind::StaticPlan;
    EvictionPolicyKind eviction = EvictionPolicyKind::LastForwardUse;
    /** Prefetch window in ops (static-plan and history lookahead). */
    std::size_t lookahead = 8;
};

/**
 * Paging actions attached to one op of the SPMD program. Built once per
 * schedule by TrainingSession; policies and the pager interpret the
 * subset they care about.
 */
struct PageAccess
{
    /** Stashes that become HBM-resident when this op retires. */
    std::vector<LayerId> produces;
    /** Static-plan writebacks issued when this op retires (the op is
        the stash's last forward use). */
    std::vector<LayerId> planWritebacks;
    /** Stashes this op reads; it may not issue until all are ready. */
    std::vector<LayerId> reads;
    /** Stashes dead after this op retires (it was their last reader). */
    std::vector<LayerId> releases;
};

/** The whole program's page-access schedule, indexed by op. */
using PagingSchedule = std::vector<PageAccess>;

} // namespace mcdla

#endif // MCDLA_VMEM_PAGING_PAGING_CONFIG_HH
