/**
 * @file
 * Ablation: the Fig 15 / Section VI scale-out direction.
 *
 * Compares the direct-ring MC-DLA(B) against the switched MC-DLA(X)
 * (NVSwitch-class planes) at 8 devices — quantifying the switch's
 * latency cost — and then scales MC-DLA(X) to 16 and 32 devices, which
 * the fixed cube-mesh cannot reach, against a PCIe-bound DC-DLA at the
 * same scale. Last, it grows MC-DLA(B)'s rings from 4 to 32 devices
 * (every device still sees two neighbor memory-nodes) with the pool
 * they expose. Weak scaling: 64 samples per device.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

namespace
{

Simulator sim;

IterationResult
run(SystemDesign design, const std::string &workload, int devices,
    ParallelMode mode, const Simulator::Hooks &hooks = {})
{
    Scenario sc;
    sc.design = design;
    sc.workload = workload;
    sc.mode = mode;
    sc.globalBatch = 64LL * devices; // weak scaling
    sc.base.fabric.numDevices = devices;
    sc.base.fabric.switchRadix = 2 * devices; // provision the radix
    return sim.run(sc, hooks);
}

} // anonymous namespace

int
main()
{
    LogConfig::verbose = false;

    std::cout << "=== Switch cost at 8 devices (direct ring vs "
                 "switched planes) ===\n\n";
    TablePrinter head({"Workload", "MC-DLA(B) ms", "MC-DLA(X) ms",
                       "switch cost"});
    for (const char *workload : {"AlexNet", "VGG-E", "RNN-LSTM-1"}) {
        const double b =
            run(SystemDesign::McDlaB, workload, 8,
                ParallelMode::DataParallel).iterationSeconds();
        const double x =
            run(SystemDesign::McDlaX, workload, 8,
                ParallelMode::DataParallel).iterationSeconds();
        head.addRow({workload, TablePrinter::num(b * 1e3, 2),
                     TablePrinter::num(x * 1e3, 2),
                     TablePrinter::num(100.0 * (x / b - 1.0), 1)
                         + "%"});
    }
    head.print(std::cout);

    // One DC-DLA run per size serves both scale-out tables.
    TablePrinter table({"Devices", "Plane radix", "DC-DLA(ms)",
                        "MC-DLA(X)(ms)", "Speedup", "Pool(TB)"});
    // Exposed: every device's HBM plus the memory-nodes it addresses,
    // where the switched table counts the memory-nodes alone.
    TablePrinter ring({"Devices", "Exposed(TB)", "DC-DLA(ms)",
                       "MC-DLA(B)(ms)", "Speedup", "Ring stages"});
    for (int devices : {4, 8, 16, 32}) {
        double pool = 0.0;
        int stages = 0;
        Simulator::Hooks hooks;
        hooks.postRun = [&](System &system, const IterationResult &) {
            pool = static_cast<double>(system.totalExposedMemory());
            stages = system.fabric().rings()[0].stageCount();
        };
        const double dc = run(SystemDesign::DcDla, "ResNet", devices,
                              ParallelMode::DataParallel)
                              .iterationSeconds();
        const double b = run(SystemDesign::McDlaB, "ResNet", devices,
                             ParallelMode::DataParallel, hooks)
                             .iterationSeconds();
        ring.addRow({std::to_string(devices),
                     TablePrinter::num(pool / kTB, 1),
                     TablePrinter::num(dc * 1e3, 2),
                     TablePrinter::num(b * 1e3, 2),
                     TablePrinter::num(dc / b, 2),
                     std::to_string(stages)});
        if (devices < 8)
            continue;
        const double x = run(SystemDesign::McDlaX, "ResNet", devices,
                             ParallelMode::DataParallel)
                             .iterationSeconds();
        MemoryNodeConfig node;
        table.addRow({std::to_string(devices),
                      std::to_string(2 * devices),
                      TablePrinter::num(dc * 1e3, 2),
                      TablePrinter::num(x * 1e3, 2),
                      TablePrinter::num(dc / x, 2),
                      TablePrinter::num(
                          static_cast<double>(node.capacity())
                              * devices / kTB,
                          1)});
    }
    std::cout << "\n=== Scale-out: switched MC-DLA vs DC-DLA "
                 "(ResNet, data-parallel, 64 samples/device) ===\n\n";
    table.print(std::cout);
    std::cout << "\n=== Scale-out: direct-ring MC-DLA(B) vs DC-DLA "
                 "(ResNet, data-parallel, 64 samples/device) ===\n\n";
    ring.print(std::cout);
    std::cout << "\nThe memory-centric advantage persists as the "
                 "device-side plane scales out (Section VI): every "
                 "added device brings its own memory-node, while the "
                 "host interface stays fixed.\n";
    return 0;
}
