/**
 * @file
 * Figure 12 reproduction: CPU memory bandwidth usage per workload for
 * DC-DLA, HC-DLA, and MC-DLA — average while training data-parallel,
 * average model-parallel, and the peak windowed usage (both modes).
 * Values are per CPU socket (the paper's 300 GB/s HC-DLA ceiling is a
 * per-socket figure); system-wide totals are twice these with two
 * sockets.
 *
 * Paper shape: DC-DLA draws up to the PCIe aggregate; HC-DLA saturates
 * its provisioned socket bandwidth (average up to ~92% on some
 * workloads); MC-DLA uses none at all.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;
    std::cout << "=== Figure 12: CPU memory bandwidth usage "
                 "(GB/s per socket, batch " << kDefaultBatch
              << ") ===\n\n";

    const SystemDesign designs[] = {SystemDesign::DcDla,
                                    SystemDesign::HcDla,
                                    SystemDesign::McDlaB};

    std::vector<Scenario> scenarios;
    for (SystemDesign design : designs)
        for (const BenchmarkInfo &info : benchmarkCatalog())
            for (ParallelMode mode : {ParallelMode::DataParallel,
                                      ParallelMode::ModelParallel}) {
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
    for (SystemDesign design : designs) {
        TablePrinter table({"Workload", "avg(DP)", "avg(MP)",
                            "max(both)"});
        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            double avg_dp = 0.0, avg_mp = 0.0, peak = 0.0;
            for (ParallelMode mode : {ParallelMode::DataParallel,
                                      ParallelMode::ModelParallel}) {
                const IterationResult &r =
                    cursor.next(info.name, design, mode);
                if (mode == ParallelMode::DataParallel)
                    avg_dp = r.hostAvgBwPerSocket;
                else
                    avg_mp = r.hostAvgBwPerSocket;
                peak = std::max(peak, r.hostPeakBwPerSocket);
            }
            table.addRow({info.name,
                          TablePrinter::num(avg_dp / kGB, 1),
                          TablePrinter::num(avg_mp / kGB, 1),
                          TablePrinter::num(peak / kGB, 1)});
        }
        std::cout << "-- " << kSystemDesigns.name(design) << " --\n";
        table.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "HC-DLA provisioned socket bandwidth: 300 GB/s "
                 "(4 devices x 3 links x 25 GB/s).\n";
    return 0;
}
