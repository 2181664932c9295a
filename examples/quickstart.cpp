/**
 * @file
 * Quickstart: simulate one training iteration of AlexNet (batch 512,
 * data-parallel, 8 devices) on all six system design points and print
 * the latency breakdown — a one-screen tour of the library.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    Simulator sim;
    std::cout << sim.network("AlexNet")->summary() << '\n';

    TablePrinter table({"Design", "Iter(ms)", "Compute(ms)", "Sync(ms)",
                        "Vmem(ms)", "HostAvg(GB/s)", "HostPeak(GB/s)",
                        "Speedup vs DC"});

    double dc_time = 0.0;
    for (SystemDesign design : kAllDesigns) {
        Scenario sc;
        sc.design = design;
        sc.workload = "AlexNet";
        sc.mode = ParallelMode::DataParallel;
        sc.globalBatch = kDefaultBatch;

        const IterationResult r = sim.run(sc);
        if (design == SystemDesign::DcDla)
            dc_time = r.iterationSeconds();

        table.addRow({
            kSystemDesigns.name(design),
            TablePrinter::num(r.iterationSeconds() * 1e3, 2),
            TablePrinter::num(r.breakdown.computeSec * 1e3, 2),
            TablePrinter::num(r.breakdown.syncSec * 1e3, 2),
            TablePrinter::num(r.breakdown.vmemSec * 1e3, 2),
            TablePrinter::num(r.hostAvgBwPerSocket / kGB, 1),
            TablePrinter::num(r.hostPeakBwPerSocket / kGB, 1),
            TablePrinter::num(dc_time / r.iterationSeconds(), 2),
        });
    }
    table.print(std::cout);

    // Capacity expansion headline (Section V-C): 8 memory-nodes of
    // 128 GB LRDIMMs add ~10.4 TB to the node.
    SystemPowerModel power;
    MemoryNodeConfig node;
    std::cout << "\nMC-DLA pooled memory with 128GB LRDIMM nodes: "
              << formatBytes(static_cast<double>(
                     power.pooledCapacity(node)))
              << " (+" << TablePrinter::num(
                     100.0 * power.powerOverhead(node), 0)
              << "% system power)\n";
    return 0;
}
