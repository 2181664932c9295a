/**
 * @file
 * Example: exploring the paged device-memory subsystem.
 *
 * Runs the same workload under the three prefetch policies on a
 * deliberately small HBM and prints the paging counters each one
 * produced — the quickest way to see how the static vDNN plan,
 * fault-driven on-demand paging, and history-based prefetching differ
 * on the simulator's hottest path.
 *
 * Build: part of the default cmake build (example_paging_explorer).
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

int
main()
{
    LogConfig::verbose = false;

    Simulator sim;
    TablePrinter table({"Policy", "Iter(ms)", "Vmem(ms)", "Hit%",
                        "Faults", "Writebacks", "Stall(ms)"});

    for (PrefetchPolicyKind policy : {PrefetchPolicyKind::StaticPlan,
                                      PrefetchPolicyKind::OnDemand,
                                      PrefetchPolicyKind::History}) {
        Scenario sc;
        sc.design = SystemDesign::McDlaB;
        sc.workload = "VGG-E";
        sc.globalBatch = 256;
        // Two iterations so the history policy reaches steady state.
        sc.iterations = 2;
        sc.base.paging.prefetch = policy;
        // Shrink HBM to 3 GiB so capacity pressure actually pages.
        sc.base.device.memCapacity =
            static_cast<std::uint64_t>(3 * kGiB);

        const IterationResult r = sim.run(sc);
        table.addRow(
            {kPrefetchPolicyKinds.token(policy),
             TablePrinter::num(r.iterationSeconds() * 1e3, 2),
             TablePrinter::num(r.breakdown.vmemSec * 1e3, 2),
             TablePrinter::num(r.paging.hitRate() * 100.0, 1),
             std::to_string(r.paging.demandFills),
             std::to_string(r.paging.writebacks),
             TablePrinter::num(r.paging.stallSec * 1e3, 2)});
    }

    std::cout << "VGG-E on MC-DLA(B), batch 256, 3 GiB HBM, "
                 "steady-state iteration:\n\n";
    table.print(std::cout);
    std::cout << "\nThe static plan migrates every stash "
                 "unconditionally; on-demand only pages\nwhat "
                 "pressure evicts (but stalls on every fault); "
                 "history prefetches ahead\nof the recorded access "
                 "sequence and hides the fault latency again.\n";
    return 0;
}
