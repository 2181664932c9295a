/**
 * @file
 * EvictionPolicy: victim selection under HBM capacity pressure.
 *
 * When a demand-paged prefetch policy (on-demand, history) needs HBM
 * frames, the pager asks its eviction policy to name a victim among the
 * resident, unpinned page groups. Two built-in policies:
 *
 *  - LRU: evict the least-recently-touched group;
 *  - last-forward-use: prefer groups whose last forward consumer has
 *    already retired, oldest trigger first — vDNN's own heuristic, and
 *    Belady-like for the stack-shaped fwd/bwd access pattern (the
 *    earliest-produced stash is the one backpropagation needs last).
 */

#ifndef MCDLA_VMEM_PAGING_EVICTION_POLICY_HH
#define MCDLA_VMEM_PAGING_EVICTION_POLICY_HH

#include <memory>

#include "vmem/paging/page_table.hh"
#include "vmem/paging/paging_config.hh"

namespace mcdla
{

/** Victim-selection interface. */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    virtual EvictionPolicyKind kind() const = 0;
    const char *name() const { return kEvictionPolicyKinds.token(kind()); }

    /**
     * Choose the next victim among evictable (Resident, unpinned)
     * page groups.
     *
     * @param table The device's page table.
     * @param frontier_op The next op the device will issue.
     * @return The victim layer, or invalidLayerId when none exists.
     */
    virtual LayerId chooseVictim(const PageTable &table,
                                 std::size_t frontier_op) const = 0;
};

/** Evict the least-recently-touched resident group. */
class LruEviction : public EvictionPolicy
{
  public:
    EvictionPolicyKind kind() const override
    {
        return EvictionPolicyKind::Lru;
    }
    LayerId chooseVictim(const PageTable &table,
                         std::size_t frontier_op) const override;
};

/** Prefer groups whose last forward use already retired. */
class LastForwardUseEviction : public EvictionPolicy
{
  public:
    EvictionPolicyKind kind() const override
    {
        return EvictionPolicyKind::LastForwardUse;
    }
    LayerId chooseVictim(const PageTable &table,
                         std::size_t frontier_op) const override;
};

/** Instantiate a policy by kind. */
std::unique_ptr<EvictionPolicy> makeEvictionPolicy(
    EvictionPolicyKind kind);

} // namespace mcdla

#endif // MCDLA_VMEM_PAGING_EVICTION_POLICY_HH
