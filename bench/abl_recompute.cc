/**
 * @file
 * Ablation: the recompute-cheap-layers optimization (paper footnote 4,
 * adopted from MXNet for a conservative evaluation).
 *
 * Disabling it migrates activation/pool/normalization outputs too,
 * inflating virtualization traffic; the paper keeps it on so DC-DLA is
 * not unfairly penalized. This bench quantifies both the traffic and
 * the iteration-time impact on DC-DLA and MC-DLA(B).
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;
    std::cout << "=== Footnote-4 ablation: recompute cheap layers "
                 "on/off (data-parallel, batch " << kDefaultBatch
              << ") ===\n\n";

    Simulator sim;
    for (SystemDesign design :
         {SystemDesign::DcDla, SystemDesign::McDlaB}) {
        TablePrinter table({"Workload", "on(ms)", "off(ms)",
                            "slowdown", "traffic on(GB)",
                            "traffic off(GB)"});
        for (const BenchmarkInfo &info : benchmarkCatalog()) {
            if (info.recurrent)
                continue; // recompute matters for CNN activations
            double t_on = 0.0, t_off = 0.0;
            double traffic_on = 0.0, traffic_off = 0.0;
            for (bool recompute : {true, false}) {
                Scenario sc;
                sc.design = design;
                sc.workload = info.name;
                sc.base.recomputeCheapLayers = recompute;
                const IterationResult r = sim.run(sc);
                (recompute ? t_on : t_off) = r.iterationSeconds();
                (recompute ? traffic_on : traffic_off) =
                    r.offloadBytesPerDevice;
            }
            table.addRow({info.name, TablePrinter::num(t_on * 1e3, 2),
                          TablePrinter::num(t_off * 1e3, 2),
                          TablePrinter::num(t_off / t_on, 2),
                          TablePrinter::num(traffic_on / 1e9, 2),
                          TablePrinter::num(traffic_off / 1e9, 2)});
        }
        std::cout << "-- " << kSystemDesigns.name(design) << " --\n";
        table.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
