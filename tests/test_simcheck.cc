/**
 * @file
 * SimCheck violation-injection tests: each invariant is broken on
 * purpose and must abort with a diagnostic naming its subsystem.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/pool_allocator.hh"
#include "dnn/network.hh"
#include "interconnect/fabrics.hh"
#include "serving/serving.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"
#include "sim/units.hh"
#include "vmem/dma_engine.hh"
#include "vmem/paging/fault_handler.hh"
#include "vmem/paging/page_table.hh"
#include "vmem/runtime.hh"

namespace mcdla
{
namespace
{

/** SimCheck on, panics thrown, both restored on exit. */
class SimCheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _wasEnabled = simcheck::enabled();
        simcheck::setEnabled(true);
        LogConfig::throwOnError = true;
    }

    void
    TearDown() override
    {
        LogConfig::throwOnError = false;
        simcheck::setEnabled(_wasEnabled);
    }

    /** The PanicError message @p fn throws ("" plus a test failure
        when it does not throw). */
    template <typename Fn>
    static std::string
    panicMessage(Fn &&fn)
    {
        try {
            fn();
        } catch (const PanicError &e) {
            return e.what();
        }
        ADD_FAILURE() << "expected a PanicError";
        return {};
    }

  private:
    bool _wasEnabled = false;
};

TEST_F(SimCheckTest, PastSchedulingNamesTheEventQueue)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    const std::string msg =
        panicMessage([&] { eq.schedule(50, [] {}, "late"); });
    EXPECT_NE(msg.find("SimCheck[event-queue]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("late"), std::string::npos) << msg;
}

TEST_F(SimCheckTest, ReservedKeyNotAfterTheExecutingEventNamesTheEventQueue)
{
    // A seq reserved before the run, at a tick now being executed,
    // lies behind the executing event: so does that event's own key.
    EventQueue eq;
    const std::uint64_t early = eq.reserveSeq();
    std::vector<std::string> messages;
    eq.schedule(100, [&] {
        messages.push_back(panicMessage(
            [&] { eq.scheduleAt(100, early, [] {}, "stale"); }));
        messages.push_back(panicMessage([&] {
            eq.scheduleAt(100, eq.currentSeq(), [] {}, "current");
        }));
        messages.push_back(panicMessage(
            [&] { eq.scheduleAt(50, eq.reserveSeq(), [] {}, "past"); }));
    });
    eq.run();
    ASSERT_EQ(messages.size(), 3u);
    const char *const labels[] = {"stale", "current", "past"};
    for (std::size_t i = 0; i < messages.size(); ++i) {
        EXPECT_NE(messages[i].find("SimCheck[event-queue]"),
                  std::string::npos)
            << messages[i];
        EXPECT_NE(messages[i].find(labels[i]), std::string::npos)
            << messages[i];
    }
    // A key reserved in the event and scheduled ahead of it is fine.
    std::uint64_t reserved = 0;
    bool ran = false;
    eq.schedule(200, [&] {
        reserved = eq.reserveSeq();
        eq.scheduleAt(200, reserved, [&] { ran = true; });
    });
    EXPECT_NO_THROW(eq.run());
    EXPECT_TRUE(ran);
}

TEST_F(SimCheckTest, FirstFitDoubleReleaseNamesTheMemoryPool)
{
    FirstFitPoolAllocator pool(1024);
    const auto block = pool.allocate(256);
    ASSERT_TRUE(block.has_value());
    pool.release(*block);
    const std::string msg =
        panicMessage([&] { pool.release(*block); });
    EXPECT_NE(msg.find("SimCheck[memory-pool]"), std::string::npos)
        << msg;
}

TEST_F(SimCheckTest, BuddyOverlappingReleaseNamesTheMemoryPool)
{
    BuddyPoolAllocator pool(1024, /*min_block=*/64);
    const auto a = pool.allocate(128);
    ASSERT_TRUE(a.has_value());
    // A handle overlapping block a but never handed out by the pool:
    // releasing it would create overlapping free blocks.
    PoolBlock forged = *a;
    forged.bytes = 64;
    const std::string msg =
        panicMessage([&] { pool.release(forged); });
    EXPECT_NE(msg.find("SimCheck[memory-pool]"), std::string::npos)
        << msg;
    pool.release(*a);
}

TEST_F(SimCheckTest, DoubleMappedFrameNamesThePageTable)
{
    PageTable table(1 * kGiB, /*enforce=*/true);
    table.addEntry(/*layer=*/0, 256 * kMiB,
                   /*last_forward_use_op=*/0);
    table.produce(0, /*now=*/10);
    // Filling a group that is already resident would map its frames
    // twice.
    const std::string msg = panicMessage([&] { table.beginFill(0); });
    EXPECT_NE(msg.find("SimCheck[page-table]"), std::string::npos)
        << msg;
}

TEST_F(SimCheckTest, LeakedDmaNamesTheFaultHandler)
{
    EventQueue eq;
    auto fabric = buildMcdlaRingFabric(eq, FabricConfig{});
    DeviceAddressSpace space(
        "d0", 16 * kGiB,
        std::vector<RemoteRegion>{RemoteRegion{0, 640 * kGiB},
                                  RemoteRegion{7, 640 * kGiB}});
    DmaEngine dma_engine(eq, "dma0", fabric->vmemPaths(0));
    VmemRuntime rt(space, dma_engine, PagePolicy::BwAware);

    std::map<LayerId, RemotePtr> remote_ptrs;
    remote_ptrs.emplace(0, rt.mallocRemote(64 * kMiB));
    const std::vector<double> wire_bytes{64.0 * kMiB};
    Network net("empty");
    FaultHandler fault(rt, remote_ptrs, wire_bytes, /*waves=*/1, net,
                       /*tracker=*/nullptr);

    fault.issueFillDma(0, /*demand=*/true, nullptr);
    ASSERT_FALSE(fault.dmaIdle());
    // The DMA has not drained: declaring the iteration done now
    // leaks it.
    const std::string msg = panicMessage(
        [&] { fault.simcheckExpectQuiescent("end of iteration"); });
    EXPECT_NE(msg.find("SimCheck[fault-handler]"), std::string::npos)
        << msg;
    eq.run();
    fault.simcheckExpectQuiescent("end of iteration"); // drained now
}

TEST_F(SimCheckTest, DroppedRequestNamesServing)
{
    std::vector<RequestOutcome> outcomes(2);
    outcomes[0].request.name = "req0";
    outcomes[0].completed = true;
    outcomes[0].replica = 0;
    outcomes[0].dispatchSec = 0.1;
    outcomes[0].doneSec = 0.2;
    outcomes[1].request.name = "req1";
    // req1 was admitted but neither completed nor shed.
    const std::string msg = panicMessage(
        [&] { simcheckVerifyRequestOutcomes(outcomes); });
    EXPECT_NE(msg.find("SimCheck[serving]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("req1"), std::string::npos) << msg;

    outcomes[1].dropped = true;
    simcheckVerifyRequestOutcomes(outcomes); // consistent now

    outcomes[1].completed = true; // completed AND shed
    const std::string both = panicMessage(
        [&] { simcheckVerifyRequestOutcomes(outcomes); });
    EXPECT_NE(both.find("SimCheck[serving]"), std::string::npos)
        << both;
}

TEST_F(SimCheckTest, ViolationsCountAndDisableRestores)
{
    const std::uint64_t before = simcheck::violationCount();
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
    EXPECT_GT(simcheck::violationCount(), before);

    // With SimCheck off the same schedule is a clamp, not an error.
    simcheck::setEnabled(false);
    bool ran = false;
    eq.schedule(50, [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
}

} // anonymous namespace
} // namespace mcdla
