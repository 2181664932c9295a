/**
 * @file
 * Figure 11 reproduction: per-category latency breakdown (computation /
 * synchronization / memory virtualization) for all six designs and all
 * eight workloads, batch 512, data-parallel (a) and model-parallel (b).
 * Each design's three bars are normalized to the tallest stacked bar of
 * its workload, as in the paper.
 *
 * Paper shape: DC-DLA spends the least time on synchronization but
 * memory virtualization bottlenecks it on most entries; HC-DLA cuts
 * virtualization (~88%) while nearly doubling synchronization; the
 * MC-DLA family gets both right; the oracle has no virtualization bar.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;

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
        std::cout << "=== Figure 11("
                  << (mode == ParallelMode::DataParallel ? "a" : "b")
                  << "): latency breakdown, " << kParallelModes.name(mode)
                  << ", batch " << kDefaultBatch << " ===\n\n";

        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            TablePrinter table({"Design", "Compute", "Sync", "Vmem",
                                "Total", "Compute(ms)", "Sync(ms)",
                                "Vmem(ms)"});
            std::vector<LatencyBreakdown> rows;
            double tallest = 0.0;
            for (SystemDesign design : kAllDesigns) {
                const IterationResult &r =
                    cursor.next(info.name, design, mode);
                rows.push_back(r.breakdown);
                tallest = std::max(tallest, r.breakdown.total());
            }
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const LatencyBreakdown &b = rows[i];
                table.addRow({
                    kSystemDesigns.name(kAllDesigns[i]),
                    TablePrinter::num(b.computeSec / tallest, 3),
                    TablePrinter::num(b.syncSec / tallest, 3),
                    TablePrinter::num(b.vmemSec / tallest, 3),
                    TablePrinter::num(b.total() / tallest, 3),
                    TablePrinter::num(b.computeSec * 1e3, 2),
                    TablePrinter::num(b.syncSec * 1e3, 2),
                    TablePrinter::num(b.vmemSec * 1e3, 2),
                });
            }
            std::cout << "-- " << info.name << " --\n";
            table.print(std::cout);
            std::cout << '\n';
        }
    }
    return 0;
}
