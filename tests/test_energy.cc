/**
 * @file
 * Unit tests for the activity-based energy model.
 */

#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "system/energy_model.hh"
#include "workloads/benchmarks.hh"

namespace mcdla
{
namespace
{

struct Measured
{
    IterationResult result;
    EnergyReport energy;
};

Measured
runAndMeasure(SystemDesign design, const Network &net,
              std::int64_t batch = 256,
              ParallelMode mode = ParallelMode::DataParallel,
              int pipeline_stages = 0, int microbatches = 1)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = design;
    System system(eq, cfg);
    TrainingSession session(system, net, mode, batch, pipeline_stages,
                            microbatches);
    Measured run;
    run.result = session.run();
    run.energy = estimateEnergy(system, run.result);
    return run;
}

TEST(Energy, ComponentsArePositiveAndConsistent)
{
    const Network net = buildBenchmark("AlexNet");
    const Measured run = runAndMeasure(SystemDesign::McDlaB, net);
    const EnergyReport &e = run.energy;
    EXPECT_GT(e.deviceJoules, 0.0);
    EXPECT_GT(e.memNodeJoules, 0.0);
    EXPECT_GT(e.linkJoules, 0.0);
    EXPECT_NEAR(e.totalJoules(),
                e.deviceJoules + e.memNodeJoules + e.linkJoules
                    + e.hostJoules,
                1e-9);
    EXPECT_GT(e.averageWatts(), 0.0);
    EXPECT_GT(e.perfPerWatt(), 0.0);
}

TEST(Energy, McdlaMovesEnergyFromHostToMemoryNodes)
{
    const Network net = buildBenchmark("AlexNet");
    const Measured dc = runAndMeasure(SystemDesign::DcDla, net);
    const Measured mc = runAndMeasure(SystemDesign::McDlaB, net);
    // DC-DLA has no memory-node draw; MC-DLA has no host traffic term.
    EXPECT_DOUBLE_EQ(dc.energy.memNodeJoules, 0.0);
    EXPECT_GT(mc.energy.memNodeJoules, 0.0);
    EXPECT_GT(dc.energy.hostJoules, mc.energy.hostJoules);
}

TEST(Energy, McdlaWinsPerfPerWattDespiteExtraBoards)
{
    // Section V-C's headline, now with measured activity: the shorter
    // iteration amortizes device idle energy and beats the added
    // memory-node power.
    const Network net = buildBenchmark("GoogLeNet");
    const Measured dc = runAndMeasure(SystemDesign::DcDla, net);
    const Measured mc = runAndMeasure(SystemDesign::McDlaB, net);
    EXPECT_GT(mc.energy.perfPerWatt(), 1.5 * dc.energy.perfPerWatt());
}

TEST(Energy, AveragePowerStaysBelowBoardLimits)
{
    // 8 devices x 300 W + 8 memory-node boards + host: a DGX-class
    // envelope (the paper quotes 3,200 W + up to 31%).
    const Network net = buildBenchmark("VGG-E");
    const Measured mc = runAndMeasure(SystemDesign::McDlaB, net);
    EXPECT_LT(mc.energy.averageWatts(), 4800.0);
    EXPECT_GT(mc.energy.averageWatts(), 400.0);
}

TEST(Energy, IdleDeviceDrawsIdlePower)
{
    // DC-DLA's long PCIe stalls leave devices idle: its average power
    // must be well below the MC-DLA run that keeps devices busy.
    const Network net = buildBenchmark("VGG-E");
    const Measured dc = runAndMeasure(SystemDesign::DcDla, net);
    const Measured mc = runAndMeasure(SystemDesign::McDlaB, net);
    EXPECT_LT(dc.energy.averageWatts(), mc.energy.averageWatts());
}

TEST(Energy, PipelineComponentsArePositiveAndConsistent)
{
    // Per-stage energy accounting under --mode pp: every component of
    // a 4-stage GPipe run integrates to something positive and the
    // total stays the sum of its parts.
    const Network net = buildBenchmark("ResNet");
    const Measured run =
        runAndMeasure(SystemDesign::McDlaB, net, 256,
                      ParallelMode::Pipeline, /*stages=*/4,
                      /*microbatches=*/8);
    const EnergyReport &e = run.energy;
    EXPECT_GT(e.deviceJoules, 0.0);
    EXPECT_GT(e.memNodeJoules, 0.0);
    EXPECT_GT(e.linkJoules, 0.0);
    EXPECT_NEAR(e.totalJoules(),
                e.deviceJoules + e.memNodeJoules + e.linkJoules
                    + e.hostJoules,
                1e-9);
    EXPECT_GT(e.perfPerWatt(), 0.0);
}

TEST(Energy, PipelineIdleStagesDrawIdlePowerOnly)
{
    // A 2-stage pipeline on the 8-device machine leaves six devices
    // idle: total device energy must sit between all-idle and
    // two-busy-six-idle bounds, i.e. the idle stages are billed at
    // idle power, not TDP.
    const Network net = buildBenchmark("ResNet");
    const Measured run =
        runAndMeasure(SystemDesign::McDlaB, net, 256,
                      ParallelMode::Pipeline, /*stages=*/2,
                      /*microbatches=*/4);
    const EnergyConfig cfg;
    const double span = run.energy.iterationSeconds;
    ASSERT_GT(span, 0.0);
    const double all_idle = 8.0 * span * cfg.deviceIdleWatts;
    const double two_busy = span
        * (2.0 * cfg.deviceTdpWatts + 6.0 * cfg.deviceIdleWatts);
    EXPECT_GT(run.energy.deviceJoules, all_idle);
    EXPECT_LE(run.energy.deviceJoules, two_busy * (1.0 + 1e-9));
}

TEST(Energy, PipelineStageImbalanceShowsInDeviceEnergy)
{
    // With one stage per device the per-stage busy times differ (the
    // partition balances cost, not exactly), so device energy must
    // exceed the all-idle floor yet stay below every-device-flat-out;
    // the pipeline's bubble guarantees real slack below the ceiling.
    const Network net = buildBenchmark("GoogLeNet");
    const Measured run =
        runAndMeasure(SystemDesign::McDlaB, net, 256,
                      ParallelMode::Pipeline, /*stages=*/8,
                      /*microbatches=*/8);
    const EnergyConfig cfg;
    const double span = run.energy.iterationSeconds;
    ASSERT_GT(span, 0.0);
    EXPECT_GT(run.energy.deviceJoules,
              8.0 * span * cfg.deviceIdleWatts);
    EXPECT_LT(run.energy.deviceJoules,
              8.0 * span * cfg.deviceTdpWatts);
}

TEST(Energy, EachIterationIsMeasuredAlone)
{
    // The channel counters are lifetime totals, so the energy of the
    // last of three identical iterations must read the iteration's
    // own channel bytes to equal that of a lone iteration.
    auto last_energy = [](SystemDesign design, int iterations) {
        Scenario sc;
        sc.design = design;
        sc.workload = "AlexNet";
        sc.globalBatch = 512;
        sc.iterations = iterations;
        EnergyReport energy;
        Simulator::Hooks hooks;
        hooks.postRun = [&energy](System &system,
                                  const IterationResult &result) {
            energy = estimateEnergy(system, result);
        };
        Simulator().run(sc, hooks);
        return energy;
    };
    for (SystemDesign design :
         {SystemDesign::McDlaB, SystemDesign::DcDla}) {
        SCOPED_TRACE(systemDesignToken(design));
        const EnergyReport one = last_energy(design, 1);
        const EnergyReport three = last_energy(design, 3);
        ASSERT_GT(one.totalJoules(), 0.0);
        const auto expect_close = [](double got, double want) {
            EXPECT_NEAR(got, want, 1e-9 * want);
        };
        expect_close(three.deviceJoules, one.deviceJoules);
        expect_close(three.memNodeJoules, one.memNodeJoules);
        expect_close(three.linkJoules, one.linkJoules);
        expect_close(three.hostJoules, one.hostJoules);
        expect_close(three.totalJoules(), one.totalJoules());
    }
}

TEST(Energy, ZeroSpanYieldsEmptyReport)
{
    EventQueue eq;
    SystemConfig cfg;
    System system(eq, cfg);
    IterationResult empty;
    const EnergyReport e = estimateEnergy(system, empty);
    EXPECT_DOUBLE_EQ(e.totalJoules(), 0.0);
    EXPECT_DOUBLE_EQ(e.averageWatts(), 0.0);
}

} // anonymous namespace
} // namespace mcdla
