/**
 * @file
 * Ablation: LOCAL vs BW_AWARE page placement (Fig 10, MC-DLA(L) vs
 * MC-DLA(B)).
 *
 * The raw DMA latency of a LOCAL allocation is 2x that of a BW_AWARE
 * one (D/(N*B/2) vs D/(N*B)); at the system level the ring interconnect
 * hides most of that difference (the paper reports MC-DLA(L) within 96%
 * of MC-DLA(B)), which is exactly what this ablation quantifies.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;

    // Part 1: raw Fig 10 DMA latency relation.
    {
        EventQueue eq;
        auto fabric = buildMcdlaRingFabric(eq, FabricConfig{});
        DmaEngine dma(eq, "dma0", fabric->vmemPaths(0));
        const double bytes = 256e6;

        Tick t_aware = 0;
        dma.transfer(bytes, DmaDirection::LocalToRemote,
                     {0.5, 0.5}, [&] { t_aware = eq.now(); });
        eq.run();
        const Tick mark = eq.now();
        Tick t_local = 0;
        dma.transfer(bytes, DmaDirection::LocalToRemote,
                     {1.0, 0.0}, [&] { t_local = eq.now() - mark; });
        eq.run();

        std::cout << "=== Fig 10 check: 256 MB offload latency ===\n";
        std::cout << "BW_AWARE (all N links):  "
                  << formatTime(t_aware) << '\n';
        std::cout << "LOCAL (N/2 links):       "
                  << formatTime(t_local) << '\n';
        std::cout << "ratio: "
                  << TablePrinter::num(
                         static_cast<double>(t_local)
                             / static_cast<double>(t_aware),
                         2)
                  << "x (ideal: 2.0x)\n\n";
    }

    // Part 2: end-to-end MC-DLA(L) vs MC-DLA(B).
    std::cout << "=== System-level: MC-DLA(L) vs MC-DLA(B), batch "
              << kDefaultBatch << " ===\n\n";
    Simulator sim;
    for (ParallelMode mode : {ParallelMode::DataParallel,
                              ParallelMode::ModelParallel}) {
        TablePrinter table({"Workload", "L(ms)", "B(ms)", "L/B perf"});
        std::vector<double> ratios;
        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            double tl = 0.0, tb = 0.0;
            for (SystemDesign design :
                 {SystemDesign::McDlaL, SystemDesign::McDlaB}) {
                Scenario sc;
                sc.design = design;
                sc.workload = info.name;
                sc.mode = mode;
                const IterationResult r = sim.run(sc);
                (design == SystemDesign::McDlaL ? tl : tb) =
                    r.iterationSeconds();
            }
            ratios.push_back(tb / tl);
            table.addRow({info.name, TablePrinter::num(tl * 1e3, 2),
                          TablePrinter::num(tb * 1e3, 2),
                          TablePrinter::num(tb / tl, 3)});
        }
        std::cout << "-- " << kParallelModes.name(mode) << " --\n";
        table.print(std::cout);
        std::cout << "HarMean L/B performance: "
                  << TablePrinter::num(harmonicMean(ratios), 3)
                  << " (paper: ~0.96)\n\n";
    }
    return 0;
}
