/**
 * @file
 * Figure 13 reproduction: normalized performance of the six system
 * design points, data-parallel (a) and model-parallel (b), batch 512,
 * eight devices. Performance is iteration throughput normalized to the
 * best design per workload (the oracle), as in the paper's bars.
 *
 * Paper headline numbers (harmonic means): MC-DLA(B) achieves 3.5x (DP)
 * and 2.1x (MP) over DC-DLA — 2.8x overall; HC-DLA manages +32%/+38%;
 * MC-DLA(B) reaches 84-99% of the unbuildable oracle; MC-DLA(L) stays
 * within ~96% of MC-DLA(B); MC-DLA(S) loses 14% on average (24% max).
 */

#include <iostream>
#include <map>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;
    std::map<SystemDesign, std::vector<double>> speedups_all;

    // The full (mode x workload x design) grid as one declarative
    // sweep, executed across every core.
    std::vector<Scenario> scenarios;
    for (ParallelMode mode : {ParallelMode::DataParallel,
                              ParallelMode::ModelParallel})
        for (const BenchmarkInfo &info : benchmarkCatalog())
            for (SystemDesign design : kAllDesigns) {
                Scenario sc;
                sc.design = design;
                sc.workload = info.name;
                sc.mode = mode;
                sc.globalBatch = kDefaultBatch;
                scenarios.push_back(std::move(sc));
            }
    SweepRunner runner(SweepConfig{/*threads=*/0, /*progress=*/false});
    const std::vector<IterationResult> results = runner.run(scenarios);

    SweepCursor cursor(scenarios, results);
    for (ParallelMode mode : {ParallelMode::DataParallel,
                              ParallelMode::ModelParallel}) {
        std::cout << "=== Figure 13("
                  << (mode == ParallelMode::DataParallel ? "a" : "b")
                  << "): normalized performance, "
                  << kParallelModes.name(mode) << ", batch "
                  << kDefaultBatch << " ===\n\n";

        TablePrinter table({"Workload", "DC-DLA", "HC-DLA", "MC-DLA(S)",
                            "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"});
        std::map<SystemDesign, std::vector<double>> speedups;

        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            std::map<SystemDesign, double> perf;
            double best = 0.0;
            for (SystemDesign design : kAllDesigns) {
                const IterationResult &r =
                    cursor.next(info.name, design, mode);
                perf[design] = r.performance();
                best = std::max(best, r.performance());
            }
            std::vector<std::string> row{info.name};
            for (SystemDesign design : kAllDesigns) {
                row.push_back(
                    TablePrinter::num(perf[design] / best, 3));
                const double speedup =
                    perf[design] / perf[SystemDesign::DcDla];
                speedups[design].push_back(speedup);
                speedups_all[design].push_back(speedup);
            }
            table.addRow(std::move(row));
        }
        table.print(std::cout);

        std::cout << "\nHarmonic-mean speedup over DC-DLA:\n";
        for (SystemDesign design : kAllDesigns) {
            std::cout << "  " << kSystemDesigns.name(design) << ": "
                      << TablePrinter::num(
                             harmonicMean(speedups[design]), 2)
                      << "x\n";
        }
        const double b = harmonicMean(speedups[SystemDesign::McDlaB]);
        const double o =
            harmonicMean(speedups[SystemDesign::DcDlaOracle]);
        const double s = harmonicMean(speedups[SystemDesign::McDlaS]);
        std::cout << "  MC-DLA(B) vs oracle: "
                  << TablePrinter::num(100.0 * b / o, 1)
                  << "% (paper: 84-99%, avg 95%)\n"
                  << "  MC-DLA(S) vs MC-DLA(B): "
                  << TablePrinter::num(100.0 * s / b, 1)
                  << "% (paper: -14% avg)\n\n";
    }

    std::cout << "=== Overall (both modes) ===\n";
    std::cout << "MC-DLA(B) harmonic-mean speedup over DC-DLA: "
              << TablePrinter::num(
                     harmonicMean(speedups_all[SystemDesign::McDlaB]),
                     2)
              << "x (paper: 2.8x)\n";
    return 0;
}
