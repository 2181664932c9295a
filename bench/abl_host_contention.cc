/**
 * @file
 * Ablation: relaxing the paper's conservative host assumption.
 *
 * The paper deliberately lets DC-DLA/HC-DLA draw host bandwidth without
 * contention ("for a conservative evaluation, we assume that HC-DLA's
 * CPU memory bandwidth usage has no effect on system performance").
 * Real sockets provide ~80 GB/s (Xeon) to ~120 GB/s (Power9). This
 * bench applies those caps, showing the host-centric designs degrade
 * further while MC-DLA is untouched — strengthening the paper's
 * argument.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;
    std::cout << "=== Host socket-bandwidth contention ablation "
                 "(data-parallel, batch " << kDefaultBatch
              << ") ===\n\n";

    struct Cap
    {
        const char *name;
        double bw;
    };
    // The default resolves to the saturation rate of the attached
    // links (DC-DLA: 4 x 13 GB/s; HC-DLA: 300 GB/s) — the paper's
    // never-throttles assumption. Realistic socket caps bite HC-DLA
    // hard and leave PCIe-bound DC-DLA nearly untouched.
    const Cap caps[] = {
        {"paper default", 0.0},
        {"Power9-class 120 GB/s", 120.0 * kGB},
        {"Xeon-class 80 GB/s", 80.0 * kGB},
    };

    std::vector<Scenario> scenarios;
    for (SystemDesign design :
         {SystemDesign::DcDla, SystemDesign::HcDla})
        for (const BenchmarkInfo &info : benchmarkCatalog())
            for (const Cap &cap : caps) {
                Scenario sc;
                sc.design = design;
                sc.workload = info.name;
                sc.base.fabric.socketBandwidth = cap.bw;
                scenarios.push_back(std::move(sc));
            }
    SweepRunner runner(SweepConfig{/*threads=*/0, /*progress=*/false});
    const std::vector<IterationResult> results = runner.run(scenarios);

    SweepCursor cursor(scenarios, results);
    for (SystemDesign design :
         {SystemDesign::DcDla, SystemDesign::HcDla}) {
        TablePrinter table({"Workload", caps[0].name, caps[1].name,
                            caps[2].name});
        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            std::vector<std::string> row{info.name};
            for (const Cap &cap : caps) {
                if (cursor.peek().base.fabric.socketBandwidth
                    != cap.bw)
                    panic("cap axis drifted from the sweep order");
                const IterationResult &r = cursor.next(
                    info.name, design, ParallelMode::DataParallel);
                row.push_back(
                    TablePrinter::num(r.iterationSeconds() * 1e3, 2));
            }
            table.addRow(std::move(row));
        }
        std::cout << "-- " << kSystemDesigns.name(design)
                  << " iteration time (ms) --\n";
        table.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "MC-DLA designs bypass the host entirely and are "
                 "unaffected by socket caps.\n";
    return 0;
}
