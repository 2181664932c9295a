/**
 * @file
 * PrefetchPolicy: when page traffic is scheduled.
 *
 * The pager calls the policy at three points of the SPMD program — an
 * op retired, the program frontier advanced, a stash was demanded —
 * and the policy answers by asking the pager for writebacks and fills:
 *
 *  - static-plan reproduces the original vDNN schedule exactly
 *    (unconditional writeback at the last forward use, prefetch with a
 *    lookahead window) and ignores HBM pressure;
 *  - on-demand issues no prefetch at all: consuming ops fault, stall,
 *    and fill on demand, with pressure-driven evictions;
 *  - history records the demand-access sequence in its first
 *    stash-accessing iteration and, in steady state, prefetches ahead
 *    of its position in the recorded sequence (the position scan wraps
 *    so eviction re-faults re-synchronize instead of desyncing the
 *    cursor).
 */

#ifndef MCDLA_VMEM_PAGING_PREFETCH_POLICY_HH
#define MCDLA_VMEM_PAGING_PREFETCH_POLICY_HH

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "vmem/paging/paging_config.hh"

namespace mcdla
{

class DevicePager;

/** Traffic-scheduling interface. */
class PrefetchPolicy
{
  public:
    virtual ~PrefetchPolicy() = default;

    virtual PrefetchPolicyKind kind() const = 0;
    const char *name() const { return kPrefetchPolicyKinds.token(kind()); }

    /**
     * Whether residency is driven by faults and capacity pressure
     * (true) or purely by the compile-time plan's latches (false).
     */
    virtual bool demandPaged() const { return true; }

    /** A new iteration is starting on @p pager's device. */
    virtual void beginIteration(DevicePager &pager) { (void)pager; }

    /** Op @p op just retired on the device's compute stream. */
    virtual void opRetired(DevicePager &pager, std::size_t op)
    {
        (void)pager;
        (void)op;
    }

    /** The device's program frontier advanced to op @p op. */
    virtual void frontierAdvanced(DevicePager &pager, std::size_t op)
    {
        (void)pager;
        (void)op;
    }

    /** Stash of @p layer was demanded for the first time by its op. */
    virtual void accessed(DevicePager &pager, LayerId layer)
    {
        (void)pager;
        (void)layer;
    }
};

/** The original vDNN schedule (capacity-blind, plan-driven). */
class StaticPlanPrefetcher : public PrefetchPolicy
{
  public:
    PrefetchPolicyKind kind() const override
    {
        return PrefetchPolicyKind::StaticPlan;
    }
    bool demandPaged() const override { return false; }
    void opRetired(DevicePager &pager, std::size_t op) override;
    void frontierAdvanced(DevicePager &pager, std::size_t op) override;
};

/** Pure fault-driven paging: no prefetch. */
class OnDemandPager : public PrefetchPolicy
{
  public:
    PrefetchPolicyKind kind() const override
    {
        return PrefetchPolicyKind::OnDemand;
    }
};

/** Learn the access sequence once, prefetch ahead of it afterwards. */
class HistoryPrefetcher : public PrefetchPolicy
{
  public:
    PrefetchPolicyKind kind() const override
    {
        return PrefetchPolicyKind::History;
    }
    void beginIteration(DevicePager &pager) override;
    void accessed(DevicePager &pager, LayerId layer) override;

    bool recording() const { return _recording; }
    const std::vector<LayerId> &history() const { return _history; }
    /** Steady-state position in the recorded sequence (for tests). */
    std::size_t cursor() const { return _cursor; }

  private:
    bool _recording = true;
    std::vector<LayerId> _history;
    std::size_t _cursor = 0;
};

/** Instantiate a policy by kind. */
std::unique_ptr<PrefetchPolicy> makePrefetchPolicy(
    PrefetchPolicyKind kind);

} // namespace mcdla

#endif // MCDLA_VMEM_PAGING_PREFETCH_POLICY_HH
