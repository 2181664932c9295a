/**
 * @file
 * Integration tests: full training-iteration simulations across
 * designs, workloads, and parallel modes, checking the paper's
 * qualitative results (Section V) as invariants.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/experiment.hh"
#include "core/simulator.hh"
#include "sim/logging.hh"
#include "system/latch.hh"
#include "system/training_session.hh"
#include "workloads/benchmarks.hh"

namespace mcdla
{
namespace
{

IterationResult
runOnce(SystemDesign design, const Network &net, ParallelMode mode,
        std::int64_t batch)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = design;
    System system(eq, cfg);
    TrainingSession session(system, net, mode, batch);
    return session.run();
}

// ---------------------------------------------------------------- Latch

TEST(Latch, NullWaiterRunsNothing)
{
    Latch latch;
    latch.whenDone(nullptr);
    latch.complete();
    latch.whenDone(nullptr);
    EXPECT_TRUE(latch.done());
}

// --------------------------------------------------------- basic sanity

TEST(Training, IterationCompletesWithPositiveMakespan)
{
    const Network net = buildBenchmark("AlexNet");
    const IterationResult r = runOnce(SystemDesign::McDlaB, net,
                                      ParallelMode::DataParallel, 64);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.breakdown.computeSec, 0.0);
    EXPECT_GT(r.eventsExecuted, 0u);
}

TEST(Training, RepeatedIterationsAreDeterministic)
{
    const Network net = buildBenchmark("AlexNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel, 64);
    const IterationResult a = session.run();
    const IterationResult b = session.run();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.breakdown.vmemSec, b.breakdown.vmemSec);
}

TEST(Training, OracleHasNoVirtualizationActivity)
{
    const Network net = buildBenchmark("AlexNet");
    const IterationResult r = runOnce(SystemDesign::DcDlaOracle, net,
                                      ParallelMode::DataParallel, 64);
    EXPECT_DOUBLE_EQ(r.breakdown.vmemSec, 0.0);
    EXPECT_DOUBLE_EQ(r.offloadBytesPerDevice, 0.0);
    EXPECT_DOUBLE_EQ(r.hostBytes, 0.0);
}

TEST(Training, McdlaGeneratesNoHostTraffic)
{
    // Section V-A: "there are no CPU memory bandwidth consumption
    // whatsoever" under MC-DLA.
    const Network net = buildBenchmark("AlexNet");
    for (SystemDesign d : {SystemDesign::McDlaS, SystemDesign::McDlaL,
                           SystemDesign::McDlaB}) {
        const IterationResult r =
            runOnce(d, net, ParallelMode::DataParallel, 64);
        EXPECT_DOUBLE_EQ(r.hostBytes, 0.0) << kSystemDesigns.name(d);
        EXPECT_DOUBLE_EQ(r.hostAvgBwPerSocket, 0.0);
        EXPECT_GT(r.breakdown.vmemSec, 0.0);
    }
}

TEST(Training, HostDesignsMoveOffloadTrafficThroughSockets)
{
    const Network net = buildBenchmark("AlexNet");
    const IterationResult r = runOnce(SystemDesign::DcDla, net,
                                      ParallelMode::DataParallel, 64);
    // Host bytes == offload + prefetch traffic of all 8 devices.
    EXPECT_NEAR(r.hostBytes, r.offloadBytesPerDevice * 8.0,
                r.hostBytes * 0.01);
    EXPECT_GT(r.hostAvgBwPerSocket, 0.0);
    EXPECT_GT(r.hostPeakBwPerSocket, r.hostAvgBwPerSocket * 0.99);
}

TEST(Training, OffloadTrafficMatchesPlan)
{
    const Network net = buildBenchmark("AlexNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            512);
    const IterationResult r = session.run();
    // Offload + prefetch = 2x the planned per-sample stash x batch/8.
    const double expected = 2.0
        * static_cast<double>(session.plan().offloadBytesPerSample())
        * 64.0;
    EXPECT_NEAR(r.offloadBytesPerDevice, expected, expected * 0.01);
}

TEST(Training, OffloadBytesAreCountedPerIteration)
{
    // The DMA engines keep lifetime totals; each iteration reports
    // only the bytes it moved, so a second iteration repeats the first.
    auto offload = [](int iterations) {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "AlexNet";
        sc.globalBatch = 128;
        sc.iterations = iterations;
        return Simulator().run(sc).offloadBytesPerDevice;
    };
    const double one = offload(1);
    EXPECT_GT(one, 0.0);
    EXPECT_DOUBLE_EQ(offload(2), one);
}

TEST(Training, ChannelCountersAreLifetimeTotals)
{
    // A channel's counters only grow; each iteration reports its own
    // delta. Three identical iterations leave three times the delta
    // on every channel, and each delta equals a lone iteration's.
    struct Run
    {
        IterationResult result;
        std::vector<double> lifetimeBytes;
    };
    auto run = [](int iterations) {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "AlexNet";
        sc.globalBatch = 512;
        sc.iterations = iterations;
        Run out;
        Simulator::Hooks hooks;
        hooks.postRun = [&out](System &system, const IterationResult &) {
            for (const Channel *ch : system.fabric().channels())
                out.lifetimeBytes.push_back(ch->bytesTransferred());
        };
        out.result = Simulator().run(sc, hooks);
        return out;
    };
    const Run one = run(1);
    const Run three = run(3);
    const std::vector<ChannelUsage> &usage = three.result.channels;
    ASSERT_EQ(usage.size(), three.lifetimeBytes.size());
    ASSERT_EQ(usage.size(), one.result.channels.size());
    double moved = 0.0;
    for (std::size_t c = 0; c < usage.size(); ++c) {
        SCOPED_TRACE(usage[c].channel);
        const double delta = usage[c].bytes;
        EXPECT_NEAR(three.lifetimeBytes[c], 3.0 * delta, 1e-9 * delta);
        EXPECT_NEAR(delta, one.result.channels[c].bytes, 1e-9 * delta);
        moved += delta;
    }
    EXPECT_GT(moved, 0.0);
}

TEST(Training, ComputeTimeIsDesignInvariant)
{
    const Network net = buildBenchmark("GoogLeNet");
    const IterationResult dc = runOnce(SystemDesign::DcDla, net,
                                       ParallelMode::DataParallel, 128);
    const IterationResult mc = runOnce(SystemDesign::McDlaB, net,
                                       ParallelMode::DataParallel, 128);
    EXPECT_NEAR(dc.breakdown.computeSec, mc.breakdown.computeSec,
                dc.breakdown.computeSec * 0.02);
}

// -------------------------------------------- paper-shape invariants

TEST(Training, DesignOrderingMatchesFigure13)
{
    // DC-DLA slowest, oracle fastest, MC-DLA(B) within; the MC family
    // orders S <= L <= B (up to small noise).
    const Network net = buildBenchmark("VGG-E");
    std::map<SystemDesign, double> t;
    for (SystemDesign d : kAllDesigns)
        t[d] = runOnce(d, net, ParallelMode::DataParallel, 128)
                   .iterationSeconds();

    EXPECT_GT(t[SystemDesign::DcDla], t[SystemDesign::HcDla]);
    EXPECT_GT(t[SystemDesign::DcDla], t[SystemDesign::McDlaS]);
    EXPECT_GE(t[SystemDesign::McDlaS] * 1.02, t[SystemDesign::McDlaL]);
    EXPECT_GE(t[SystemDesign::McDlaL] * 1.02, t[SystemDesign::McDlaB]);
    EXPECT_GE(t[SystemDesign::McDlaB], t[SystemDesign::DcDlaOracle]);
}

TEST(Training, McdlaBReachesMostOfOracle)
{
    // Section V-B: MC-DLA(B) reaches 84-99% of the unbuildable oracle.
    const Network net = buildBenchmark("ResNet");
    const double b = runOnce(SystemDesign::McDlaB, net,
                             ParallelMode::DataParallel, 256)
                         .iterationSeconds();
    const double o = runOnce(SystemDesign::DcDlaOracle, net,
                             ParallelMode::DataParallel, 256)
                         .iterationSeconds();
    EXPECT_GT(o / b, 0.70);
    EXPECT_LE(o / b, 1.001);
}

TEST(Training, VirtualizationDominatesDcdlaForCnns)
{
    // Figure 11(a): memory virtualization is the DC-DLA bottleneck on
    // CNN data-parallel training.
    const Network net = buildBenchmark("VGG-E");
    const IterationResult r = runOnce(SystemDesign::DcDla, net,
                                      ParallelMode::DataParallel, 256);
    EXPECT_GT(r.breakdown.vmemSec, 2.0 * r.breakdown.computeSec);
    EXPECT_GT(r.breakdown.vmemSec, r.breakdown.syncSec);
}

TEST(Training, ModelParallelSyncsMoreThanDataParallel)
{
    const Network net = buildBenchmark("RNN-LSTM-1");
    const IterationResult dp = runOnce(SystemDesign::DcDla, net,
                                       ParallelMode::DataParallel, 512);
    const IterationResult mp = runOnce(SystemDesign::DcDla, net,
                                       ParallelMode::ModelParallel, 512);
    // Twice-per-timestep blocking aggregation vs one dW all-reduce.
    EXPECT_GT(mp.breakdown.syncSec, 1.5 * dp.breakdown.syncSec);
    EXPECT_GT(mp.syncBytes, dp.syncBytes);
}

TEST(Training, HcdlaTradesVirtualizationForSync)
{
    // Section V-A: HC-DLA cuts virtualization latency but roughly
    // doubles synchronization time vs DC-DLA.
    const Network net = buildBenchmark("AlexNet");
    const IterationResult dc = runOnce(SystemDesign::DcDla, net,
                                       ParallelMode::DataParallel, 512);
    const IterationResult hc = runOnce(SystemDesign::HcDla, net,
                                       ParallelMode::DataParallel, 512);
    EXPECT_LT(hc.breakdown.vmemSec, 0.4 * dc.breakdown.vmemSec);
    EXPECT_GT(hc.breakdown.syncSec, 1.5 * dc.breakdown.syncSec);
}

TEST(Training, HcdlaConsumesLargeFractionOfSocketBandwidth)
{
    // Figure 12 / Section II-C: HC-DLA can consume most of the
    // provisioned per-socket bandwidth (300 GB/s).
    const Network net = buildBenchmark("VGG-E");
    const IterationResult r = runOnce(SystemDesign::HcDla, net,
                                      ParallelMode::DataParallel, 256);
    EXPECT_GT(r.hostPeakBwPerSocket, 0.6 * 300.0 * kGB);
    EXPECT_LE(r.hostPeakBwPerSocket, 1.05 * 300.0 * kGB);
}

TEST(Training, BatchSizeScalesIterationTime)
{
    const Network net = buildBenchmark("ResNet");
    const double t128 = runOnce(SystemDesign::McDlaB, net,
                                ParallelMode::DataParallel, 128)
                            .iterationSeconds();
    const double t512 = runOnce(SystemDesign::McDlaB, net,
                                ParallelMode::DataParallel, 512)
                            .iterationSeconds();
    EXPECT_GT(t512, 2.5 * t128);
    EXPECT_LT(t512, 5.0 * t128);
}

TEST(Training, CapacityWallTriggersWithoutVirtualization)
{
    // A finite-memory design without virtualization cannot hold the
    // VGG-E working set at batch 512 — Section II-B's capacity wall.
    LogConfig::throwOnError = true;
    const Network net = buildBenchmark("VGG-E");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    cfg.recomputeCheapLayers = true;
    System system(eq, cfg);
    // Keeping everything resident at the Fig 2 setting (one device,
    // batch 512) far exceeds a 16 GiB card.
    OffloadPolicy policy;
    policy.virtualizeMemory = false;
    OffloadPlan plan(net, policy);
    const std::uint64_t resident =
        plan.residentBytesPerSample() * 512;
    EXPECT_GT(resident + net.totalWeightBytes(),
              cfg.device.memCapacity);
    LogConfig::throwOnError = false;
}

TEST(Training, FootprintFitsWithVirtualization)
{
    const Network net = buildBenchmark("VGG-E");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            512);
    EXPECT_LE(session.footprintBytesPerDevice(),
              cfg.device.memCapacity);
}

TEST(Training, SingleDeviceRunsWithoutCollectives)
{
    const Network net = buildBenchmark("AlexNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    cfg.fabric.numDevices = 1;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            512);
    const IterationResult r = session.run();
    EXPECT_GT(r.makespan, 0u);
    EXPECT_DOUBLE_EQ(r.breakdown.syncSec, 0.0);
    EXPECT_DOUBLE_EQ(r.syncBytes, 0.0);
}

// ---------------------------------------- catalog-wide completion sweep

class TrainingSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, SystemDesign, ParallelMode>>
{};

TEST_P(TrainingSweep, CompletesWithConsistentBreakdown)
{
    const auto [workload, design, mode] = GetParam();
    const Network net = buildBenchmark(workload);
    const IterationResult r = runOnce(design, net, mode, 64);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.breakdown.computeSec, 0.0);
    // Makespan is bounded below by compute and never smaller than any
    // single category can explain away.
    EXPECT_GE(r.iterationSeconds() * 1.0001, r.breakdown.computeSec);
    if (designVirtualizesMemory(design)) {
        EXPECT_GT(r.breakdown.vmemSec, 0.0);
    } else {
        EXPECT_DOUBLE_EQ(r.breakdown.vmemSec, 0.0);
    }
    if (!designUsesHostMemory(design)) {
        EXPECT_DOUBLE_EQ(r.hostBytes, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, TrainingSweep,
    ::testing::Combine(
        ::testing::Values("AlexNet", "GoogLeNet", "RNN-GEMV",
                          "RNN-LSTM-2"),
        ::testing::ValuesIn(std::vector<SystemDesign>(
            std::begin(kAllDesigns), std::end(kAllDesigns))),
        ::testing::Values(ParallelMode::DataParallel,
                          ParallelMode::ModelParallel)),
    [](const auto &test_info) {
        std::string name = std::get<0>(test_info.param) + "_"
            + kSystemDesigns.name(std::get<1>(test_info.param)) + "_"
            + (std::get<2>(test_info.param) == ParallelMode::DataParallel
                   ? "dp"
                   : "mp");
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ------------------------------------------------------- experiment api

TEST(Experiment, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 0.0}), 0.0);
}

TEST(Experiment, GeometricMean)
{
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(Experiment, TablePrinterAlignsColumns)
{
    TablePrinter table({"A", "LongHeader"});
    table.addRow({"x", "1"});
    std::ostringstream os;
    table.print(os);
    EXPECT_NE(os.str().find("LongHeader"), std::string::npos);
    EXPECT_NE(os.str().find("---"), std::string::npos);
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
}

TEST(Experiment, SimulatorRunsFromScenario)
{
    Simulator sim;
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "AlexNet";
    sc.globalBatch = 64;
    const IterationResult r = sim.run(sc);
    EXPECT_GT(r.makespan, 0u);
}

} // anonymous namespace
} // namespace mcdla
