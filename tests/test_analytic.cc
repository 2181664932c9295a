/**
 * @file
 * Cross-validation of the analytic estimator against the DES: the
 * simulated makespan must land between the perfect-overlap and
 * zero-overlap bounds, and the per-category totals must agree with the
 * simulation's own accounting.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "system/analytic_model.hh"
#include "system/training_session.hh"
#include "workloads/benchmarks.hh"

namespace mcdla
{
namespace
{

struct Case
{
    std::string workload;
    SystemDesign design;
    ParallelMode mode;
};

class AnalyticAgainstDes : public ::testing::TestWithParam<Case>
{};

TEST_P(AnalyticAgainstDes, MakespanFallsBetweenBounds)
{
    const Case &c = GetParam();
    const Network net = buildBenchmark(c.workload);
    SystemConfig cfg;
    cfg.design = c.design;

    const AnalyticEstimate est =
        estimateIteration(cfg, net, c.mode, 256);

    EventQueue eq;
    System system(eq, cfg);
    TrainingSession session(system, net, c.mode, 256);
    const IterationResult r = session.run();

    // The DES includes scheduling/latency effects the bounds ignore;
    // allow a small modelling margin on each side.
    EXPECT_GE(r.iterationSeconds(), est.lowerBoundSec() * 0.90)
        << kSystemDesigns.name(c.design);
    EXPECT_LE(r.iterationSeconds(), est.upperBoundSec() * 1.35)
        << kSystemDesigns.name(c.design);
}

TEST_P(AnalyticAgainstDes, ComputeTotalsAgree)
{
    const Case &c = GetParam();
    const Network net = buildBenchmark(c.workload);
    SystemConfig cfg;
    cfg.design = c.design;

    const AnalyticEstimate est =
        estimateIteration(cfg, net, c.mode, 256);
    EventQueue eq;
    System system(eq, cfg);
    TrainingSession session(system, net, c.mode, 256);
    const IterationResult r = session.run();

    EXPECT_NEAR(r.breakdown.computeSec, est.computeSec,
                est.computeSec * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnalyticAgainstDes,
    ::testing::Values(
        Case{"AlexNet", SystemDesign::DcDla,
             ParallelMode::DataParallel},
        Case{"AlexNet", SystemDesign::McDlaB,
             ParallelMode::DataParallel},
        Case{"AlexNet", SystemDesign::McDlaB,
             ParallelMode::ModelParallel},
        Case{"GoogLeNet", SystemDesign::HcDla,
             ParallelMode::DataParallel},
        Case{"VGG-E", SystemDesign::DcDla, ParallelMode::DataParallel},
        Case{"VGG-E", SystemDesign::McDlaS,
             ParallelMode::DataParallel},
        Case{"RNN-GEMV", SystemDesign::McDlaL,
             ParallelMode::DataParallel},
        Case{"RNN-LSTM-1", SystemDesign::McDlaB,
             ParallelMode::ModelParallel},
        Case{"RNN-LSTM-2", SystemDesign::DcDlaOracle,
             ParallelMode::DataParallel},
        Case{"RNN-GRU", SystemDesign::DcDla,
             ParallelMode::DataParallel}),
    [](const auto &test_info) {
        std::string name = test_info.param.workload + "_"
            + kSystemDesigns.name(test_info.param.design) + "_"
            + (test_info.param.mode == ParallelMode::DataParallel ? "dp"
                                                             : "mp");
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(AnalyticModel, VmemBandwidthPerDesign)
{
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    EXPECT_NEAR(designVmemBandwidth(cfg), 13.0 * kGB, 0.5 * kGB);
    cfg.design = SystemDesign::HcDla;
    EXPECT_DOUBLE_EQ(designVmemBandwidth(cfg), 75.0 * kGB);
    cfg.design = SystemDesign::McDlaS;
    EXPECT_DOUBLE_EQ(designVmemBandwidth(cfg), 50.0 * kGB);
    cfg.design = SystemDesign::McDlaL;
    EXPECT_DOUBLE_EQ(designVmemBandwidth(cfg), 75.0 * kGB);
    cfg.design = SystemDesign::McDlaB;
    EXPECT_DOUBLE_EQ(designVmemBandwidth(cfg), 150.0 * kGB);
    cfg.design = SystemDesign::DcDlaOracle;
    EXPECT_DOUBLE_EQ(designVmemBandwidth(cfg), 0.0);
}

TEST(AnalyticModel, OracleHasNoVmemTime)
{
    const Network net = buildBenchmark("AlexNet");
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDlaOracle;
    const AnalyticEstimate est = estimateIteration(
        cfg, net, ParallelMode::DataParallel, 512);
    EXPECT_DOUBLE_EQ(est.vmemSec, 0.0);
    EXPECT_GT(est.computeSec, 0.0);
}

TEST(AnalyticModel, CompressionScalesVmem)
{
    const Network net = buildBenchmark("VGG-E");
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    const AnalyticEstimate plain = estimateIteration(
        cfg, net, ParallelMode::DataParallel, 512);
    cfg.dmaCompressionRatio = 2.6;
    const AnalyticEstimate compressed = estimateIteration(
        cfg, net, ParallelMode::DataParallel, 512);
    EXPECT_NEAR(compressed.vmemSec, plain.vmemSec / 2.6,
                plain.vmemSec * 0.01);
}

TEST(AnalyticModel, BoundsAreOrdered)
{
    const Network net = buildBenchmark("ResNet");
    SystemConfig cfg;
    for (SystemDesign design : kAllDesigns) {
        cfg.design = design;
        const AnalyticEstimate est = estimateIteration(
            cfg, net, ParallelMode::ModelParallel, 512);
        EXPECT_LE(est.lowerBoundSec(), est.upperBoundSec());
        EXPECT_GT(est.computeSec, 0.0);
    }
}

} // anonymous namespace
} // namespace mcdla
