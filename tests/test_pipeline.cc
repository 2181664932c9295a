/**
 * @file
 * Unit tests for pipeline parallelism: the stage partitioner's balance
 * and contiguity invariants, the strategy's pipeline queries, the
 * Scenario round-trips of the new tokens/knobs, and end-to-end DES
 * runs validated against the pipeline-aware analytic bounds for all
 * three parallel modes.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/mcdla.hh"
#include "core/options.hh"
#include "sim/logging.hh"

namespace mcdla
{
namespace
{

std::vector<double>
uniformCosts(const Network &net, double value = 1.0)
{
    return std::vector<double>(net.size(), value);
}

std::vector<double>
rooflineCosts(const Network &net)
{
    const ComputeModel model(DeviceConfig{});
    LayerScaling scaling;
    scaling.batch = 32;
    std::vector<double> cost;
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        const LayerTiming t = model.layerTiming(net.layer(id), scaling);
        cost.push_back(static_cast<double>(t.forward + t.backward));
    }
    return cost;
}

// ----------------------------------------------------- stage partition

TEST(PipelinePartition, StagesAreContiguousAndCoverTheNetwork)
{
    const Network net = builders::buildResNet34();
    const std::vector<double> cost = rooflineCosts(net);
    const PipelinePartition part(net, cost, 4);

    ASSERT_EQ(part.numStages(), 4);
    std::size_t covered = 0;
    for (int s = 0; s < part.numStages(); ++s) {
        EXPECT_FALSE(part.stage(s).layers.empty());
        covered += part.stage(s).layers.size();
        for (LayerId id : part.stage(s).layers)
            EXPECT_EQ(part.stageOf(id), s);
    }
    EXPECT_EQ(covered, net.size());

    // Stage assignment must be monotone along the topological order.
    int prev = 0;
    for (LayerId id : net.topoOrder()) {
        EXPECT_GE(part.stageOf(id), prev);
        prev = part.stageOf(id);
    }
}

TEST(PipelinePartition, BalanceIsWithinTheGreedyBound)
{
    // The optimal contiguous min-max partition never exceeds the ideal
    // share by more than the largest single layer.
    for (const char *workload : {"ResNet", "VGG-E", "RNN-GEMV"}) {
        const Network net = buildBenchmark(workload);
        const std::vector<double> cost = rooflineCosts(net);
        const double max_layer =
            *std::max_element(cost.begin(), cost.end());
        for (int stages : {2, 4, 8}) {
            const PipelinePartition part(net, cost, stages);
            EXPECT_LE(part.maxStageCost(),
                      part.totalCost() / stages + max_layer + 1e-9)
                << workload << " @" << stages;
            EXPECT_GE(part.maxStageCost(),
                      part.totalCost() / stages - 1e-9);
            EXPECT_GE(part.imbalance(), 1.0 - 1e-12);
        }
    }
}

TEST(PipelinePartition, CostAccountingIsConsistent)
{
    const Network net = builders::buildAlexNet();
    const std::vector<double> cost = uniformCosts(net);
    const PipelinePartition part(net, cost, 3);
    double total = 0.0;
    double max_stage = 0.0;
    for (int s = 0; s < part.numStages(); ++s) {
        EXPECT_NEAR(part.stage(s).cost,
                    static_cast<double>(part.stage(s).layers.size()),
                    1e-9);
        total += part.stage(s).cost;
        max_stage = std::max(max_stage, part.stage(s).cost);
    }
    EXPECT_NEAR(total, part.totalCost(), 1e-9);
    EXPECT_NEAR(max_stage, part.maxStageCost(), 1e-9);
}

TEST(PipelinePartition, SingleStageTakesEverything)
{
    const Network net = builders::buildAlexNet();
    const PipelinePartition part(net, uniformCosts(net), 1);
    EXPECT_EQ(part.numStages(), 1);
    EXPECT_EQ(part.stage(0).layers.size(), net.size());
    EXPECT_NEAR(part.imbalance(), 1.0, 1e-9);
}

TEST(PipelinePartition, RejectsDegenerateArguments)
{
    LogConfig::throwOnError = true;
    const Network net = builders::buildAlexNet();
    EXPECT_THROW(PipelinePartition(net, uniformCosts(net), 0),
                 FatalError);
    EXPECT_THROW(PipelinePartition(
                     net, uniformCosts(net),
                     static_cast<int>(net.size()) + 1),
                 FatalError);
    EXPECT_THROW(PipelinePartition(net, {1.0, 2.0}, 2), FatalError);
    LogConfig::throwOnError = false;
}

// ------------------------------------------------------ strategy layer

ParallelStrategy
makePipelineStrategy(const Network &net, int stages, int microbatches,
                     std::int64_t batch = 512)
{
    PipelineConfig pipe;
    pipe.stages = stages;
    pipe.microbatches = microbatches;
    return ParallelStrategy(net, ParallelMode::Pipeline, 8, batch,
                            pipe);
}

TEST(PipelineStrategy, MicrobatchScalingAndNoCollectives)
{
    const Network net = builders::buildResNet34();
    const ParallelStrategy pp = makePipelineStrategy(net, 4, 8);
    EXPECT_TRUE(pp.isPipeline());
    EXPECT_EQ(pp.pipelineStages(), 4);
    EXPECT_EQ(pp.microbatches(), 8);
    EXPECT_EQ(pp.microbatchSize(), 64);
    EXPECT_EQ(pp.perDeviceBatch(), 64);
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        EXPECT_FALSE(pp.forwardSync(id).has_value());
        EXPECT_FALSE(pp.backwardSync(id).has_value());
        EXPECT_EQ(pp.scaling(net.layer(id)).modelShards, 1);
        EXPECT_EQ(pp.scaling(net.layer(id)).batch, 64);
    }
}

TEST(PipelineStrategy, BoundaryBytesMatchThePartitionCut)
{
    const Network net = builders::buildResNet34();
    const ParallelStrategy pp = makePipelineStrategy(net, 4, 8);
    for (int boundary = 0; boundary < 3; ++boundary) {
        // Distinct producers on or before the boundary with a consumer
        // beyond it, scaled by the microbatch size.
        double expect = 0.0;
        for (LayerId id = 0; id < static_cast<LayerId>(net.size());
             ++id) {
            if (pp.stageOfLayer(id) > boundary)
                continue;
            bool crosses = false;
            for (LayerId c : net.consumersOf(id))
                if (pp.stageOfLayer(c) > boundary)
                    crosses = true;
            if (crosses)
                expect += static_cast<double>(
                    net.layer(id).outBytesPerSample());
        }
        expect *= static_cast<double>(pp.microbatchSize());
        EXPECT_GT(expect, 0.0);
        EXPECT_DOUBLE_EQ(pp.boundaryBytesPerMicrobatch(boundary),
                         expect);
    }
}

TEST(PipelineStrategy, StageWeightsCoverTheModelExactlyWithoutTies)
{
    const Network net = builders::buildAlexNet(); // no tied weights
    const ParallelStrategy pp = makePipelineStrategy(net, 4, 4);
    std::uint64_t total = 0;
    std::uint64_t worst = 0;
    for (int s = 0; s < pp.pipelineStages(); ++s) {
        total += pp.stageWeightBytes(s);
        worst = std::max(worst, pp.stageWeightBytes(s));
    }
    EXPECT_EQ(total, net.totalWeightBytes());
    EXPECT_EQ(pp.weightBytesPerDevice(net), worst);
}

TEST(PipelineStrategy, TiedRnnStagesKeepASharedWeightCopy)
{
    const Network net = builders::buildRnnGemv(10, 128);
    const ParallelStrategy pp = makePipelineStrategy(net, 4, 4);
    // Every stage holding recurrent cells needs the shared weights
    // resident, so the per-stage sum exceeds the deduplicated model.
    std::uint64_t total = 0;
    for (int s = 0; s < pp.pipelineStages(); ++s) {
        EXPECT_GT(pp.stageWeightBytes(s), 0u);
        total += pp.stageWeightBytes(s);
    }
    EXPECT_GE(total, net.totalWeightBytes());
}

TEST(PipelineStrategy, TieGroupsSpanStagesForUnrolledRnns)
{
    const Network net = builders::buildRnnGemv(10, 128);
    const ParallelStrategy pp = makePipelineStrategy(net, 4, 4);
    const auto groups = pp.tieGroupStages();
    ASSERT_EQ(groups.size(), 1u); // One shared cell tensor (t0's).
    const auto &[owner, stages] = *groups.begin();
    EXPECT_FALSE(net.layer(owner).weightsTied()); // Owner is untied.
    EXPECT_TRUE(net.layer(owner).isRecurrent());
    EXPECT_GT(stages.size(), 1u); // 10 cells across 4 stages.
    // CNNs without tying have no spanning groups.
    const Network cnn = builders::buildAlexNet();
    EXPECT_TRUE(
        makePipelineStrategy(cnn, 4, 4).tieGroupStages().empty());
}

TEST(PipelineStrategy, StageStashLayersIncludeBoundaryInputs)
{
    const Network net = builders::buildResNet34();
    SystemConfig cfg;
    const OffloadPlan plan(net, cfg.offloadPolicy());
    const ParallelStrategy pp = makePipelineStrategy(net, 4, 8);
    bool found_boundary_input = false;
    for (int s = 1; s < pp.pipelineStages(); ++s) {
        for (LayerId id : pp.stageStashLayers(s, plan)) {
            EXPECT_EQ(plan.entry(id).action, TensorAction::Offload);
            if (pp.stageOfLayer(id) < s)
                found_boundary_input = true;
        }
    }
    EXPECT_TRUE(found_boundary_input);
}

TEST(PipelineStrategy, RejectsDegenerateConfigs)
{
    LogConfig::throwOnError = true;
    const Network net = builders::buildAlexNet();
    PipelineConfig pipe;
    pipe.stages = 9; // > devices
    pipe.microbatches = 4;
    EXPECT_THROW(ParallelStrategy(net, ParallelMode::Pipeline, 8, 512,
                                  pipe),
                 FatalError);
    pipe.stages = 4;
    pipe.microbatches = 0;
    EXPECT_THROW(ParallelStrategy(net, ParallelMode::Pipeline, 8, 512,
                                  pipe),
                 FatalError);
    pipe.microbatches = 1024; // > batch
    EXPECT_THROW(ParallelStrategy(net, ParallelMode::Pipeline, 8, 512,
                                  pipe),
                 FatalError);
    LogConfig::throwOnError = false;
}

// ----------------------------------------------- scenario round trips

TEST(PipelineScenario, TokensAndLabelRoundTrip)
{
    EXPECT_EQ(kParallelModes.parse("pp"), ParallelMode::Pipeline);
    EXPECT_EQ(kParallelModes.parse("pipeline"), ParallelMode::Pipeline);
    EXPECT_EQ(kParallelModes.parse("pipeline-parallel"),
              ParallelMode::Pipeline);
    EXPECT_STREQ(parallelModeToken(ParallelMode::Pipeline), "pp");
    EXPECT_STREQ(kParallelModes.name(ParallelMode::Pipeline),
                 "pipeline-parallel");

    Scenario sc;
    sc.workload = "ResNet";
    sc.design = SystemDesign::McDlaB;
    sc.mode = ParallelMode::Pipeline;
    sc.globalBatch = 512;
    sc.pipelineStages = 4;
    sc.microbatches = 8;
    EXPECT_EQ(sc.label(), "ResNet/mc-b/pp/b512/s4/mb8");
    // Unset stage count resolves to one stage per device.
    sc.pipelineStages = 0;
    EXPECT_EQ(sc.label(), "ResNet/mc-b/pp/b512/s8/mb8");
    // Non-pipeline labels stay untouched by the new knobs.
    sc.mode = ParallelMode::DataParallel;
    EXPECT_EQ(sc.label(), "ResNet/mc-b/dp/b512");
}

TEST(PipelineScenario, FromOptionsResolvesThePipelineKnobs)
{
    OptionParser opts("t", "test");
    Scenario::addOptions(opts);
    const char *argv[] = {"t",
                          "--mode", "pp",
                          "--pipeline-stages", "4",
                          "--microbatches", "8"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(7, argv, err));
    const Scenario sc = Scenario::fromOptions(opts);
    EXPECT_EQ(sc.mode, ParallelMode::Pipeline);
    EXPECT_EQ(sc.pipelineStages, 4);
    EXPECT_EQ(sc.microbatches, 8);
}

TEST(PipelineScenario, FromOptionsRejectsBadPipelineKnobs)
{
    LogConfig::throwOnError = true;
    {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--microbatches", "0"};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    }
    {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--pipeline-stages", "-1"};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    }
    {
        // Batch not divisible into microbatches.
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--mode", "pp", "--batch", "100",
                              "--microbatches", "8"};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(7, argv, err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    }
    LogConfig::throwOnError = false;
}

// ------------------------------------- DES against the analytic oracle

struct BoundsCase
{
    std::string workload;
    SystemDesign design;
    ParallelMode mode;
    int stages = 0;
    int microbatches = 1;
};

class DesWithinAnalyticBounds
    : public ::testing::TestWithParam<BoundsCase>
{};

TEST_P(DesWithinAnalyticBounds, MakespanFallsBetweenBounds)
{
    LogConfig::verbose = false;
    const BoundsCase &c = GetParam();

    Scenario sc;
    sc.design = c.design;
    sc.workload = c.workload;
    sc.mode = c.mode;
    sc.globalBatch = 256;
    sc.pipelineStages = c.stages;
    sc.microbatches = c.microbatches;

    Simulator sim;
    const Network &net = *sim.network(c.workload);
    const AnalyticEstimate est = estimateIteration(
        sc.config(), net, c.mode, sc.globalBatch, c.stages,
        c.microbatches);
    const IterationResult r = sim.run(sc);

    // The DES includes scheduling/latency effects the bounds ignore;
    // allow a small modelling margin on each side.
    EXPECT_GE(r.iterationSeconds(), est.lowerBoundSec() * 0.90)
        << sc.label();
    EXPECT_LE(r.iterationSeconds(), est.upperBoundSec() * 1.35)
        << sc.label();
    EXPECT_LE(est.lowerBoundSec(),
              est.upperBoundSec() * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesWithinAnalyticBounds,
    ::testing::Values(
        // Pipeline mode across CNN and RNN workloads and designs.
        BoundsCase{"ResNet", SystemDesign::McDlaB,
                   ParallelMode::Pipeline, 4, 8},
        BoundsCase{"ResNet", SystemDesign::DcDla,
                   ParallelMode::Pipeline, 4, 8},
        BoundsCase{"ResNet", SystemDesign::McDlaB,
                   ParallelMode::Pipeline, 8, 4},
        BoundsCase{"RNN-GEMV", SystemDesign::McDlaB,
                   ParallelMode::Pipeline, 4, 8},
        BoundsCase{"RNN-GEMV", SystemDesign::McDlaL,
                   ParallelMode::Pipeline, 8, 8},
        BoundsCase{"VGG-E", SystemDesign::DcDla,
                   ParallelMode::Pipeline, 8, 8},
        BoundsCase{"GoogLeNet", SystemDesign::McDlaB,
                   ParallelMode::Pipeline, 4, 8},
        BoundsCase{"ResNet", SystemDesign::DcDlaOracle,
                   ParallelMode::Pipeline, 4, 8},
        // The legacy modes must satisfy the same oracle on the same
        // workloads (guards the shared estimate plumbing).
        BoundsCase{"ResNet", SystemDesign::McDlaB,
                   ParallelMode::DataParallel},
        BoundsCase{"ResNet", SystemDesign::McDlaB,
                   ParallelMode::ModelParallel},
        BoundsCase{"RNN-GEMV", SystemDesign::McDlaB,
                   ParallelMode::DataParallel},
        BoundsCase{"RNN-GEMV", SystemDesign::McDlaB,
                   ParallelMode::ModelParallel}),
    [](const auto &test_info) {
        std::string name = test_info.param.workload + "_"
            + kSystemDesigns.name(test_info.param.design) + "_"
            + parallelModeToken(test_info.param.mode) + "_s"
            + std::to_string(test_info.param.stages) + "_mb"
            + std::to_string(test_info.param.microbatches);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// --------------------------------------------------- end-to-end runs

TEST(PipelineSession, DeterministicAcrossRuns)
{
    LogConfig::verbose = false;
    Scenario sc;
    sc.workload = "ResNet";
    sc.mode = ParallelMode::Pipeline;
    sc.globalBatch = 256;
    sc.pipelineStages = 4;
    sc.microbatches = 8;
    Simulator sim;
    const IterationResult a = sim.run(sc);
    const IterationResult b = sim.run(sc);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_DOUBLE_EQ(a.syncBytes, b.syncBytes);
}

TEST(PipelineSession, SteadyStateIterationsRepeat)
{
    LogConfig::verbose = false;
    Scenario sc;
    sc.workload = "RNN-GEMV";
    sc.mode = ParallelMode::Pipeline;
    sc.globalBatch = 256;
    sc.pipelineStages = 4;
    sc.microbatches = 8;
    Simulator sim;
    const IterationResult one = sim.run(sc);
    sc.iterations = 2;
    const IterationResult two = sim.run(sc);
    EXPECT_EQ(one.makespan, two.makespan);
}

TEST(PipelineSession, SyncBytesMatchTheBoundaryPayloads)
{
    LogConfig::verbose = false;
    const Network net = buildBenchmark("ResNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::Pipeline, 256,
                            4, 8);
    const IterationResult r = session.run();
    // Forward activation plus backward gradient of every boundary, one
    // transfer per microbatch.
    const ParallelStrategy &st = session.strategy();
    double expect = 0.0;
    for (int b = 0; b + 1 < st.pipelineStages(); ++b)
        expect += 2.0 * st.microbatches()
            * st.boundaryBytesPerMicrobatch(b);
    EXPECT_GT(expect, 0.0);
    EXPECT_DOUBLE_EQ(r.syncBytes, expect);
    // The transfers really went through the fabric: the collective/p2p
    // activity tracker saw them.
    EXPECT_GT(r.breakdown.syncSec, 0.0);
}

TEST(PipelineSession, TiedDwReductionsTravelToTheOwnerStage)
{
    LogConfig::verbose = false;
    const Network net = buildBenchmark("RNN-GEMV");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::Pipeline, 256,
                            4, 8);
    const IterationResult r = session.run();
    const ParallelStrategy &st = session.strategy();
    // Boundary payloads plus one dW contribution per non-owner member
    // stage of the shared recurrent weight tensor.
    double expect = 0.0;
    for (int b = 0; b + 1 < st.pipelineStages(); ++b)
        expect += 2.0 * st.microbatches()
            * st.boundaryBytesPerMicrobatch(b);
    double tied = 0.0;
    for (const auto &[owner, stages] : st.tieGroupStages())
        tied += static_cast<double>(stages.size() - 1)
            * static_cast<double>(net.layer(owner).weightBytes());
    EXPECT_GT(tied, 0.0);
    EXPECT_DOUBLE_EQ(r.syncBytes, expect + tied);
}

TEST(PipelineSession, PagersAreStageLocal)
{
    LogConfig::verbose = false;
    const Network net = buildBenchmark("ResNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::Pipeline, 256,
                            4, 8);
    session.run();
    // Stage devices page (stage tensors x microbatches) groups; idle
    // devices own nothing.
    std::size_t groups = 0;
    for (int d = 0; d < 4; ++d) {
        const std::size_t here =
            session.pager(d).pageTable().entries().size();
        EXPECT_GT(here, 0u) << "stage " << d;
        EXPECT_EQ(here % 8, 0u) << "stage " << d; // 8 microbatches
        groups += here;
    }
    for (int d = 4; d < 8; ++d)
        EXPECT_EQ(session.pager(d).pageTable().entries().size(), 0u);
    EXPECT_GT(groups, 0u);
    // Stage 0's counters surface in the iteration result.
    const IterationResult r = session.run();
    EXPECT_GT(r.paging.fills, 0u);
    EXPECT_EQ(r.paging.fills, r.paging.writebacks);
}

TEST(PipelineSession, SessionMatchesSimulatorFacade)
{
    LogConfig::verbose = false;
    Scenario sc;
    sc.workload = "ResNet";
    sc.mode = ParallelMode::Pipeline;
    sc.globalBatch = 256;
    sc.pipelineStages = 4;
    sc.microbatches = 8;

    Simulator sim;
    const IterationResult facade = sim.run(sc);

    EventQueue eq;
    System system(eq, sc.config());
    TrainingSession session(system, *sim.network("ResNet"), sc.mode,
                            sc.globalBatch, sc.pipelineStages,
                            sc.microbatches);
    const IterationResult manual = session.run();
    EXPECT_EQ(facade.makespan, manual.makespan);
    EXPECT_EQ(facade.eventsExecuted, manual.eventsExecuted);
}

} // anonymous namespace
} // namespace mcdla
