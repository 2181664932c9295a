/**
 * @file
 * Ablation: measured energy per iteration and performance-per-watt
 * (extends Section V-C from TDP bounds to activity-based energy).
 *
 * Paper reference: with Table IV TDPs, MC-DLA lands 2.1x-2.6x perf/W
 * over DC-DLA at its 2.8x speedup. Here power follows measured device
 * occupancy, DIMM-bus utilization, and link traffic instead of TDP.
 */

#include <iostream>

#include "core/mcdla.hh"
#include "system/energy_model.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;
    std::cout << "=== Measured energy per iteration (data-parallel, "
                 "batch " << kDefaultBatch << ") ===\n\n";

    Simulator sim;
    std::vector<double> ppw_gain;
    for (const BenchmarkInfo &info : benchmarkCatalog()) {
        TablePrinter table({"Design", "Iter(ms)", "Energy(J)",
                            "AvgPower(W)", "Device(J)", "MemNode(J)",
                            "Link(J)", "Host(J)", "perf/W vs DC"});
        double dc_ppw = 0.0;
        for (SystemDesign design :
             {SystemDesign::DcDla, SystemDesign::HcDla,
              SystemDesign::McDlaB}) {
            Scenario sc;
            sc.design = design;
            sc.workload = info.name;
            sc.mode = ParallelMode::DataParallel;
            sc.globalBatch = kDefaultBatch;
            EnergyReport e;
            Simulator::Hooks hooks;
            hooks.postRun = [&](System &system,
                                const IterationResult &res) {
                e = estimateEnergy(system, res);
            };
            const IterationResult r = sim.run(sc, hooks);
            if (design == SystemDesign::DcDla)
                dc_ppw = e.perfPerWatt();
            if (design == SystemDesign::McDlaB)
                ppw_gain.push_back(e.perfPerWatt() / dc_ppw);
            table.addRow({
                kSystemDesigns.name(design),
                TablePrinter::num(r.iterationSeconds() * 1e3, 2),
                TablePrinter::num(e.totalJoules(), 1),
                TablePrinter::num(e.averageWatts(), 0),
                TablePrinter::num(e.deviceJoules, 1),
                TablePrinter::num(e.memNodeJoules, 1),
                TablePrinter::num(e.linkJoules, 2),
                TablePrinter::num(e.hostJoules, 1),
                TablePrinter::num(e.perfPerWatt() / dc_ppw, 2),
            });
        }
        std::cout << "-- " << info.name << " --\n";
        table.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "MC-DLA(B) harmonic-mean perf/W gain over DC-DLA: "
              << TablePrinter::num(harmonicMean(ppw_gain), 2)
              << "x (paper's TDP-bound estimate at 2.8x speedup: "
                 "2.1x-2.6x)\n";
    return 0;
}
