/**
 * @file
 * Unit tests for the paged device-memory subsystem: PageTable
 * residency/accounting, eviction-policy victim selection, the policy
 * string round-trips, the Scenario plumbing of the paging knobs, and
 * end-to-end invariants of the static-plan / on-demand / history
 * prefetch policies on real workloads.
 */

#include <gtest/gtest.h>

#include "core/mcdla.hh"
#include "core/options.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

// ---------------------------------------------------------- page table

TEST(PageTable, LifecycleAndAccounting)
{
    PageTable table(1000, true);
    table.addEntry(0, 400, 5);
    table.addEntry(1, 300, 7);
    EXPECT_TRUE(table.enforcing());
    EXPECT_EQ(table.freeBytes(), 1000u);

    table.produce(0, 10);
    table.produce(1, 20);
    EXPECT_EQ(table.usedBytes(), 700u);
    EXPECT_EQ(table.entry(0).state, PageState::Resident);
    EXPECT_TRUE(table.entry(0).dirty);

    table.beginEvict(0);
    EXPECT_EQ(table.usedBytes(), 700u); // Charged until the drain.
    EXPECT_EQ(table.evictingBytes(), 400u);
    EXPECT_EQ(table.evictionsInFlight(), 1);
    table.finishEvict(0);
    EXPECT_EQ(table.usedBytes(), 300u);
    EXPECT_FALSE(table.entry(0).dirty);
    EXPECT_EQ(table.entry(0).state, PageState::NotResident);

    table.beginFill(0);
    EXPECT_EQ(table.usedBytes(), 700u);
    EXPECT_EQ(table.fillsInFlight(), 1);
    table.finishFill(0, 30);
    EXPECT_EQ(table.entry(0).state, PageState::Resident);
    EXPECT_EQ(table.entry(0).lastTouch, 30u);

    // A refilled group is clean: it can discard for free.
    table.discard(0);
    EXPECT_EQ(table.usedBytes(), 300u);

    table.release(1);
    EXPECT_EQ(table.usedBytes(), 0u);
    EXPECT_EQ(table.entry(1).state, PageState::Invalid);
    EXPECT_EQ(table.peakUsedBytes(), 700u);

    table.resetIteration();
    EXPECT_EQ(table.peakUsedBytes(), 0u);
    EXPECT_EQ(table.entry(0).state, PageState::Invalid);
}

TEST(PageTable, InvalidTransitionsPanic)
{
    LogConfig::throwOnError = true;
    PageTable table(1000, true);
    table.addEntry(0, 100, 0);
    EXPECT_THROW(table.beginEvict(0), PanicError);  // Not resident.
    EXPECT_THROW(table.beginFill(0), PanicError);   // Not evicted.
    table.produce(0, 1);
    EXPECT_THROW(table.produce(0, 2), PanicError);  // Double produce.
    EXPECT_THROW(table.addEntry(0, 1, 0), PanicError);
    LogConfig::throwOnError = false;
}

// ---------------------------------------------------- eviction policies

PageTable
makeTableWithThreeResidents()
{
    PageTable table(1u << 30, true);
    table.addEntry(0, 100, 2); // Oldest trigger, middle touch.
    table.addEntry(1, 100, 8); // Newest trigger, oldest touch.
    table.addEntry(2, 100, 5);
    table.produce(0, 20);
    table.produce(1, 10);
    table.produce(2, 30);
    return table;
}

TEST(EvictionPolicy, LruPicksOldestTouch)
{
    const PageTable table = makeTableWithThreeResidents();
    LruEviction lru;
    EXPECT_EQ(lru.chooseVictim(table, 100), 1);
}

TEST(EvictionPolicy, LruSkipsPinnedAndNonResident)
{
    PageTable table = makeTableWithThreeResidents();
    table.entry(1).pinned = true;
    table.beginEvict(0);
    LruEviction lru;
    EXPECT_EQ(lru.chooseVictim(table, 100), 2);
    table.entry(2).pinned = true;
    EXPECT_EQ(lru.chooseVictim(table, 100), invalidLayerId);
}

TEST(EvictionPolicy, LastForwardUsePrefersRetiredTriggers)
{
    const PageTable table = makeTableWithThreeResidents();
    LastForwardUseEviction lfu;
    // Frontier 6: layers 0 (trigger 2) and 2 (trigger 5) are past
    // their last forward use; 0 is the older trigger.
    EXPECT_EQ(lfu.chooseVictim(table, 6), 0);
    // Frontier 0: no trigger retired yet; falls back to LRU.
    EXPECT_EQ(lfu.chooseVictim(table, 0), 1);
}

// ------------------------------------------------- string round trips

TEST(PagingConfig, PolicyTokensRoundTrip)
{
    for (const auto &row : kPrefetchPolicyKinds.all())
        EXPECT_EQ(kPrefetchPolicyKinds.parse(row.token), row.value);
    for (const auto &row : kEvictionPolicyKinds.all())
        EXPECT_EQ(kEvictionPolicyKinds.parse(row.token), row.value);
    EXPECT_EQ(kPrefetchPolicyKinds.all().size(), 3u);
    EXPECT_EQ(kEvictionPolicyKinds.all().size(), 2u);
    LogConfig::throwOnError = true;
    EXPECT_THROW(kPrefetchPolicyKinds.parse("bogus"), FatalError);
    EXPECT_THROW(kEvictionPolicyKinds.parse("bogus"), FatalError);
    LogConfig::throwOnError = false;
}

TEST(PagingConfig, RejectsNonPositiveLookahead)
{
    // A zero window silently produced a no-op prefetcher; it is a
    // configuration error like the other capacity knobs.
    LogConfig::throwOnError = true;
    for (const char *value : {"0", "-3"}) {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--prefetch-lookahead", value};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    }
    LogConfig::throwOnError = false;
}

TEST(PagingConfig, ScenarioPlumbsPagingOptions)
{
    OptionParser opts("t", "test");
    Scenario::addOptions(opts);
    const char *argv[] = {"t",
                          "--prefetch-policy", "history",
                          "--eviction-policy", "lru",
                          "--prefetch-lookahead", "4",
                          "--hbm-capacity", "3"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(9, argv, err));
    const Scenario sc = Scenario::fromOptions(opts);
    EXPECT_EQ(sc.base.paging.prefetch, PrefetchPolicyKind::History);
    EXPECT_EQ(sc.base.paging.eviction, EvictionPolicyKind::Lru);
    EXPECT_EQ(sc.base.paging.lookahead, 4u);
    EXPECT_EQ(sc.base.device.memCapacity, 3 * kGiB);
}

// ------------------------------------------------- end-to-end policies

IterationResult
runPolicy(PrefetchPolicyKind policy, std::uint64_t hbm_bytes,
          int iterations = 1,
          EvictionPolicyKind eviction =
              EvictionPolicyKind::LastForwardUse)
{
    Simulator sim;
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "VGG-E";
    sc.globalBatch = 256;
    sc.iterations = iterations;
    sc.base.paging.prefetch = policy;
    sc.base.paging.eviction = eviction;
    sc.base.device.memCapacity = hbm_bytes;
    return sim.run(sc);
}

TEST(Paging, StaticPlanIsCapacityInsensitive)
{
    const IterationResult small =
        runPolicy(PrefetchPolicyKind::StaticPlan, 3 * kGiB);
    const IterationResult large =
        runPolicy(PrefetchPolicyKind::StaticPlan, 16 * kGiB);
    EXPECT_EQ(small.makespan, large.makespan);
    EXPECT_DOUBLE_EQ(small.offloadBytesPerDevice,
                     large.offloadBytesPerDevice);
    // Every stash migrates out and back exactly once.
    EXPECT_EQ(small.paging.fills, small.paging.writebacks);
    EXPECT_GT(small.paging.fills, 0u);
    EXPECT_EQ(small.paging.earlyEvictions, 0u);
}

TEST(Paging, OnDemandMovesNothingWithAmpleHbm)
{
    const IterationResult r =
        runPolicy(PrefetchPolicyKind::OnDemand, 16 * kGiB);
    EXPECT_DOUBLE_EQ(r.breakdown.vmemSec, 0.0);
    EXPECT_DOUBLE_EQ(r.offloadBytesPerDevice, 0.0);
    EXPECT_EQ(r.paging.demandMisses, 0u);
    EXPECT_GT(r.paging.demandHits, 0u);
    EXPECT_DOUBLE_EQ(r.paging.hitRate(), 1.0);
}

TEST(Paging, OnDemandFaultsUnderPressure)
{
    const IterationResult r =
        runPolicy(PrefetchPolicyKind::OnDemand, 3 * kGiB);
    EXPECT_GT(r.paging.demandMisses, 0u);
    EXPECT_EQ(r.paging.demandFills, r.paging.fills);
    EXPECT_GT(r.paging.writebacks, 0u);
    EXPECT_GT(r.paging.stallSec, 0.0);
    EXPECT_GT(r.breakdown.vmemSec, 0.0);
    EXPECT_LT(r.paging.hitRate(), 1.0);
    // Fault stalls lengthen the iteration past the ample-HBM case.
    const IterationResult ample =
        runPolicy(PrefetchPolicyKind::OnDemand, 16 * kGiB);
    EXPECT_GT(r.makespan, ample.makespan);
    // Hits + misses covers every stash read, which is policy
    // independent.
    const IterationResult plan =
        runPolicy(PrefetchPolicyKind::StaticPlan, 3 * kGiB);
    EXPECT_EQ(r.paging.demandHits + r.paging.demandMisses,
              plan.paging.demandHits + plan.paging.demandMisses);
}

TEST(Paging, OnDemandMovesFewerBytesThanStaticPlan)
{
    const IterationResult demand =
        runPolicy(PrefetchPolicyKind::OnDemand, 3 * kGiB);
    const IterationResult plan =
        runPolicy(PrefetchPolicyKind::StaticPlan, 3 * kGiB);
    EXPECT_LT(demand.offloadBytesPerDevice,
              plan.offloadBytesPerDevice);
    EXPECT_LT(demand.paging.bytesFilled, plan.paging.bytesFilled);
}

TEST(Paging, HistoryWarmsUpToFullHitRate)
{
    // Iteration 1 records (and faults like on-demand); iteration 2
    // prefetches ahead of the recorded sequence.
    const IterationResult cold =
        runPolicy(PrefetchPolicyKind::History, 3 * kGiB, 1);
    const IterationResult warm =
        runPolicy(PrefetchPolicyKind::History, 3 * kGiB, 2);
    EXPECT_GT(cold.paging.demandMisses, 0u);
    EXPECT_GT(cold.paging.stallSec, 0.0);
    EXPECT_LT(warm.paging.demandMisses, cold.paging.demandMisses);
    EXPECT_GT(warm.paging.hitRate(), cold.paging.hitRate());
    // Steady state still pages the same groups, just earlier.
    EXPECT_EQ(warm.paging.writebacks, cold.paging.writebacks);
    EXPECT_LE(warm.makespan, cold.makespan);
}

TEST(Paging, HistoryCursorWrapsOnEarlierReaccess)
{
    // Regression: the steady-state cursor scan never wrapped, so a
    // group re-accessed at a position before the cursor (a re-fault
    // after eviction, or a stash read twice per iteration) left the
    // cursor stale — prefetches then issued from the wrong position or
    // stopped once the cursor ran off the end of the sequence.
    const Network net = buildBenchmark("VGG-E");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    cfg.paging.prefetch = PrefetchPolicyKind::History;
    cfg.device.memCapacity = 3 * kGiB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            256);
    session.run(); // Iteration 1 records the access sequence.

    DevicePager &pager = session.pager(0);
    ASSERT_EQ(pager.prefetchPolicy().kind(),
              PrefetchPolicyKind::History);
    auto &hist =
        static_cast<HistoryPrefetcher &>(pager.prefetchPolicy());
    ASSERT_GE(hist.history().size(), 3u);
    const std::vector<LayerId> recorded = hist.history();

    pager.beginIteration(nullptr); // Steady state.
    EXPECT_FALSE(hist.recording());
    EXPECT_EQ(hist.cursor(), 0u);

    // Normal progress moves the cursor forward...
    hist.accessed(pager, recorded[2]);
    EXPECT_EQ(hist.cursor(), 3u);
    // ...and a fault on an earlier position must rewind it (the old
    // scan left it at 3, prefetching from the wrong place).
    hist.accessed(pager, recorded[0]);
    EXPECT_EQ(hist.cursor(), 1u);
    // Prefetching resumes in sequence order from the re-sync point.
    hist.accessed(pager, recorded[1]);
    EXPECT_EQ(hist.cursor(), 2u);
}

TEST(Paging, HistoryRecordingKeyedOffEmptyHistory)
{
    const Network net = buildBenchmark("VGG-E");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    cfg.paging.prefetch = PrefetchPolicyKind::History;
    cfg.device.memCapacity = 3 * kGiB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            256);
    session.run();
    DevicePager &pager = session.pager(0);

    // A policy whose warmup iterations produced no accesses keeps
    // recording instead of latching off an iteration counter.
    HistoryPrefetcher fresh;
    fresh.beginIteration(pager);
    EXPECT_TRUE(fresh.recording());
    fresh.beginIteration(pager);
    EXPECT_TRUE(fresh.recording()); // Still empty, still recording.
    fresh.accessed(pager, 0);
    EXPECT_EQ(fresh.history().size(), 1u);
    fresh.beginIteration(pager);
    EXPECT_FALSE(fresh.recording()); // Sequence exists; steady state.
}

TEST(Paging, HistorySteadyStateIsStable)
{
    const IterationResult two =
        runPolicy(PrefetchPolicyKind::History, 3 * kGiB, 2);
    const IterationResult three =
        runPolicy(PrefetchPolicyKind::History, 3 * kGiB, 3);
    EXPECT_EQ(two.makespan, three.makespan);
    EXPECT_EQ(two.paging.demandMisses, three.paging.demandMisses);
}

TEST(Paging, EvictionPoliciesProduceConsistentRuns)
{
    for (EvictionPolicyKind eviction :
         {EvictionPolicyKind::Lru, EvictionPolicyKind::LastForwardUse}) {
        const IterationResult r = runPolicy(
            PrefetchPolicyKind::OnDemand, 3 * kGiB, 1, eviction);
        EXPECT_GT(r.makespan, 0u);
        EXPECT_EQ(r.paging.demandFills, r.paging.fills);
        // Conservation: every fill refetches an evicted group.
        EXPECT_LE(r.paging.fills,
                  r.paging.writebacks + r.paging.cleanDrops);
    }
}

TEST(Paging, TooSmallHbmFailsWithDiagnostic)
{
    LogConfig::throwOnError = true;
    EXPECT_THROW(runPolicy(PrefetchPolicyKind::OnDemand, 2 * kGiB),
                 FatalError);
    LogConfig::throwOnError = false;
}

TEST(Paging, DeterministicAcrossSessions)
{
    const IterationResult a =
        runPolicy(PrefetchPolicyKind::OnDemand, 3 * kGiB);
    const IterationResult b =
        runPolicy(PrefetchPolicyKind::OnDemand, 3 * kGiB);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.paging.demandMisses, b.paging.demandMisses);
    EXPECT_DOUBLE_EQ(a.paging.bytesFilled, b.paging.bytesFilled);
}

TEST(Paging, SessionExposesPagers)
{
    const Network net = buildBenchmark("AlexNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            64);
    session.run();
    DevicePager &pager = session.pager(0);
    EXPECT_EQ(pager.config().prefetch, PrefetchPolicyKind::StaticPlan);
    EXPECT_GT(pager.pageTable().entries().size(), 0u);
    std::ostringstream os;
    session.dumpPagingStats(os);
    EXPECT_NE(os.str().find("dev0.pager.demand_hits"),
              std::string::npos);
    EXPECT_NE(os.str().find("dev7.pager.hit_rate"), std::string::npos);
}

} // anonymous namespace
} // namespace mcdla
