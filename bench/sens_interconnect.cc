/**
 * @file
 * Section V-B sensitivity studies:
 *
 *  1. DC-DLA with PCIe gen4 (2x link bandwidth): the paper reports +38%
 *     DC-DLA performance, narrowing MC-DLA(B)'s gap from 2.8x to 2.1x
 *     at the cost of doubled CPU bandwidth draw.
 *  2. TPUv2-class (faster) device-nodes: gap widens to 3.2x.
 *  3. DGX-2-class scaled-up node (16 devices): gap 2.9x.
 *  4. cDMA-style activation compression (2.6x) on the four CNNs:
 *     gap narrows to 2.3x.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

namespace
{

struct Variant
{
    std::string name;
    SystemConfig base;
    bool cnnsOnly = false;
    std::int64_t batch = kDefaultBatch;
};

constexpr ParallelMode kModes[] = {ParallelMode::DataParallel,
                                   ParallelMode::ModelParallel};
constexpr SystemDesign kDesigns[] = {SystemDesign::DcDla,
                                     SystemDesign::McDlaB};

/** Appends the variant's (workload x mode x design) grid. */
void
addScenarios(const Variant &variant, std::vector<Scenario> &scenarios)
{
    for (const BenchmarkInfo &info : benchmarkCatalog()) {
        if (variant.cnnsOnly && info.recurrent)
            continue;
        for (ParallelMode mode : kModes)
            for (SystemDesign design : kDesigns) {
                Scenario sc;
                sc.design = design;
                sc.workload = info.name;
                sc.mode = mode;
                sc.base = variant.base;
                sc.globalBatch = variant.batch;
                scenarios.push_back(std::move(sc));
            }
    }
}

/** Prints the variant's table from the sweep and returns its harmonic
    mean MC-DLA(B) speedup over DC-DLA (both modes summed). */
double
mcdlaSpeedup(const Variant &variant, SweepCursor &cursor,
             std::ostream &os)
{
    std::vector<double> speedups;
    os << "-- " << variant.name << " --\n";
    TablePrinter table({"Workload", "DC-DLA(ms)", "MC-DLA(B)(ms)",
                        "Speedup"});
    for (const BenchmarkInfo &info : benchmarkCatalog()) {
        if (variant.cnnsOnly && info.recurrent)
            continue;
        double dc = 0.0, mc = 0.0;
        for (ParallelMode mode : kModes)
            for (SystemDesign design : kDesigns)
                (design == SystemDesign::DcDla ? dc : mc) +=
                    cursor.next(info.name, design, mode)
                        .iterationSeconds();
        speedups.push_back(dc / mc);
        table.addRow({info.name, TablePrinter::num(dc * 1e3, 1),
                      TablePrinter::num(mc * 1e3, 1),
                      TablePrinter::num(dc / mc, 2)});
    }
    table.print(os);
    const double mean = harmonicMean(speedups);
    os << "HarMean MC-DLA(B) speedup: " << TablePrinter::num(mean, 2)
       << "x\n\n";
    return mean;
}

} // anonymous namespace

int
main()
{
    LogConfig::verbose = false;

    Variant baseline{"Baseline (PCIe gen3, V100-class)", {}, false};

    Variant gen4{"DC-DLA with PCIe gen4 (32 GB/s raw)", {}, false};
    gen4.base.fabric.pcieRawBandwidth = 32.0 * kGB;

    // "Faster device-node configuration" (the paper's TPUv2-class
    // point): twice the baseline compute and memory bandwidth.
    Variant fast{"Faster device-node (2x compute/bandwidth)", {},
                 false};
    fast.base.device.macsPerPe = 250;
    fast.base.device.memBandwidth = 1800.0 * kGB;

    Variant dgx2{"DGX-2-class node (16 devices, batch 1024)", {},
                 false};
    dgx2.base.fabric.numDevices = 16;
    dgx2.batch = 1024;

    Variant cdma{"cDMA compression 2.6x (CNNs only)", {}, true};
    cdma.base.dmaCompressionRatio = 2.6;

    // Every variant's grid as one sweep across every core.
    const std::vector<Variant> variants = {baseline, gen4, fast, dgx2,
                                           cdma};
    std::vector<Scenario> scenarios;
    for (const Variant &variant : variants)
        addScenarios(variant, scenarios);
    SweepRunner runner(SweepConfig{/*threads=*/0, /*progress=*/false});
    const std::vector<IterationResult> results = runner.run(scenarios);
    SweepCursor cursor(scenarios, results);

    std::cout << "=== Section V-B sensitivity studies (batch "
              << kDefaultBatch << ", both parallel modes summed) "
                 "===\n\n";
    std::vector<double> means;
    for (const Variant &variant : variants)
        means.push_back(mcdlaSpeedup(variant, cursor, std::cout));
    const double base_speedup = means[0];
    const double gen4_speedup = means[1];

    std::cout << "Paper reference points: baseline 2.8x; PCIe gen4 "
                 "narrows to 2.1x; a faster device widens to 3.2x; "
                 "DGX-2 class 2.9x; cDMA narrows the CNN gap to "
                 "2.3x.\n";
    std::cout << "PCIe gen4 DC-DLA improvement observed: "
              << TablePrinter::num(
                     100.0 * (base_speedup / gen4_speedup - 1.0), 1)
              << "% narrower gap (paper: DC-DLA +38%).\n";
    return 0;
}
