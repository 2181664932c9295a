/**
 * @file
 * Figure 14 reproduction: MC-DLA(B) speedup over DC-DLA as a function of
 * the input batch size (128 / 256 / 1024 / 2048), per workload, for
 * data- and model-parallel training, with harmonic means.
 *
 * Paper shape: the speedup is robust across batch sizes (average 2.17x
 * over all batches).
 */

#include <exception>
#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

namespace
{

constexpr std::int64_t kBatches[] = {128, 256, 1024, 2048};
constexpr ParallelMode kModes[] = {ParallelMode::DataParallel,
                                   ParallelMode::ModelParallel};
constexpr SystemDesign kDesigns[] = {SystemDesign::DcDla,
                                     SystemDesign::McDlaB};

/** A run whose working set exceeds the 16 GiB device even with
    virtualization stops with a fatal: the capacity wall. */
bool
hitWall(const std::exception_ptr &error)
{
    if (!error)
        return false;
    try {
        std::rethrow_exception(error);
    } catch (const FatalError &) {
        return true;
    }
}

} // anonymous namespace

int
main()
{
    LogConfig::verbose = false;

    // The whole (batch x workload x mode x design) grid as one sweep
    // across every core.
    std::vector<Scenario> scenarios;
    for (std::int64_t batch : kBatches)
        for (const BenchmarkInfo &info : benchmarkCatalog())
            for (ParallelMode mode : kModes)
                for (SystemDesign design : kDesigns) {
                    Scenario sc;
                    sc.design = design;
                    sc.workload = info.name;
                    sc.mode = mode;
                    sc.globalBatch = batch;
                    scenarios.push_back(std::move(sc));
                }
    SweepRunner runner(SweepConfig{/*threads=*/0, /*progress=*/false});
    std::vector<std::exception_ptr> errors;
    LogConfig::throwOnError = true;
    const std::vector<IterationResult> results =
        runner.run(scenarios, &errors);
    LogConfig::throwOnError = false;

    std::cout << "=== Figure 14: MC-DLA(B) speedup over DC-DLA vs "
                 "batch size ===\n\n";

    SweepCursor cursor(scenarios, results);
    std::size_t index = 0;
    std::vector<double> all_speedups;
    for (std::int64_t batch : kBatches) {
        TablePrinter table({"Workload", "Data-parallel",
                            "Model-parallel"});
        std::vector<double> dp_speedups, mp_speedups;
        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            std::vector<std::string> row{info.name};
            for (ParallelMode mode : kModes) {
                const double dc =
                    cursor.next(info.name, SystemDesign::DcDla, mode)
                        .iterationSeconds();
                const double mc =
                    cursor.next(info.name, SystemDesign::McDlaB, mode)
                        .iterationSeconds();
                const bool wall =
                    hitWall(errors[index]) || hitWall(errors[index + 1]);
                index += 2;
                if (wall) {
                    row.push_back("wall");
                    continue;
                }
                const double speedup = dc / mc;
                row.push_back(TablePrinter::num(speedup, 2));
                (mode == ParallelMode::DataParallel ? dp_speedups
                                                    : mp_speedups)
                    .push_back(speedup);
                all_speedups.push_back(speedup);
            }
            table.addRow(std::move(row));
        }
        std::cout << "-- Batch " << batch << " --\n";
        table.print(std::cout);
        std::cout << "HarMean: DP "
                  << TablePrinter::num(harmonicMean(dp_speedups), 2)
                  << "x, MP "
                  << TablePrinter::num(harmonicMean(mp_speedups), 2)
                  << "x\n\n";
    }
    std::cout << "Average speedup across all batch sizes: "
              << TablePrinter::num(harmonicMean(all_speedups), 2)
              << "x (paper: 2.17x)\n";
    return 0;
}
