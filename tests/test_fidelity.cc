/**
 * @file
 * Paper-fidelity tests: the headline Figure 13 numbers, with the
 * tolerance each is held to written next to the paper's value.
 *
 * Kwon & Rhu report (Section VI, harmonic means over the eight DNNs,
 * batch 512, eight devices) that MC-DLA(B) is 2.8x faster than DC-DLA
 * over both parallelizations, and that it reaches 84-99% (avg 95%) of
 * the unbuildable oracle DC-DLA(O). The simulator gives 2.67x and, for
 * data parallelism, 94.8%. Its model-parallel MC-DLA(B)/oracle is a
 * known miss (72.3%, recorded in the README's headline table) and
 * is not asserted.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/mcdla.hh"

namespace mcdla
{
namespace
{

/** Harmonic-mean speedup over DC-DLA of each design, per mode, over
    the Figure 13 grid (the designs the assertions need). */
class Figure13Headlines : public ::testing::Test
{
  protected:
    static constexpr SystemDesign kDesigns[] = {
        SystemDesign::DcDla, SystemDesign::McDlaB,
        SystemDesign::DcDlaOracle};

    static void
    SetUpTestSuite()
    {
        LogConfig::verbose = false;
        std::vector<Scenario> scenarios;
        for (ParallelMode mode : {ParallelMode::DataParallel,
                                  ParallelMode::ModelParallel})
            for (const BenchmarkInfo &info : benchmarkCatalog())
                for (SystemDesign design : kDesigns) {
                    Scenario sc;
                    sc.design = design;
                    sc.workload = info.name;
                    sc.mode = mode;
                    sc.globalBatch = kDefaultBatch;
                    scenarios.push_back(std::move(sc));
                }
        SweepRunner runner(SweepConfig{/*threads=*/0, /*progress=*/false});
        const std::vector<IterationResult> results =
            runner.run(scenarios);

        SweepCursor cursor(scenarios, results);
        for (ParallelMode mode : {ParallelMode::DataParallel,
                                  ParallelMode::ModelParallel})
            for (const BenchmarkInfo &info : benchmarkCatalog()) {
                std::map<SystemDesign, double> perf;
                for (SystemDesign design : kDesigns)
                    perf[design] =
                        cursor.next(info.name, design, mode).performance();
                for (SystemDesign design : kDesigns) {
                    const double speedup =
                        perf[design] / perf[SystemDesign::DcDla];
                    _speedups[mode][design].push_back(speedup);
                    _overall[design].push_back(speedup);
                }
            }
    }

    static double
    speedup(ParallelMode mode, SystemDesign design)
    {
        return harmonicMean(_speedups[mode][design]);
    }

    static double
    overallSpeedup(SystemDesign design)
    {
        return harmonicMean(_overall[design]);
    }

  private:
    static inline std::map<ParallelMode,
                           std::map<SystemDesign, std::vector<double>>>
        _speedups;
    static inline std::map<SystemDesign, std::vector<double>> _overall;
};

TEST_F(Figure13Headlines, OverallMcdlaSpeedupIsWithinTenPercentOfPaper)
{
    const double paper = 2.8;
    const double tolerance = 0.10 * paper; // within 10%
    EXPECT_NEAR(overallSpeedup(SystemDesign::McDlaB), paper, tolerance);
}

TEST_F(Figure13Headlines, DataParallelMcdlaReachesPapersShareOfOracle)
{
    const double paper_pct = 95.0;
    const double tolerance_pct = 1.0; // within 1 percentage point
    const ParallelMode dp = ParallelMode::DataParallel;
    const double share_pct = 100.0 * speedup(dp, SystemDesign::McDlaB)
                             / speedup(dp, SystemDesign::DcDlaOracle);
    EXPECT_NEAR(share_pct, paper_pct, tolerance_pct);
}

} // namespace
} // namespace mcdla
