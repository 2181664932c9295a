/**
 * @file
 * Ablation: interconnect topology x collective algorithm x payload.
 *
 * Sweeps the generic Topology generators (ring, fully-connected
 * switch, 2-D mesh, 2-D torus, fat-tree) against the collective
 * algorithm families (ring, tree, hierarchical) across all-reduce
 * payload sizes — the axis the paper fixes by assumption. The numbers
 * reproduce the classic trade-offs:
 *
 *  - ring all-reduce is bandwidth-optimal but pays (stages-1)
 *    serialized steps, so small payloads are latency-bound;
 *  - tree all-reduce finishes in O(log n) rounds and wins small
 *    payloads, but moves the full payload per hop and loses at
 *    bandwidth saturation;
 *  - hierarchical (intra-board reduce + inter-board exchange) splits
 *    the difference on switched scale-out fabrics, where the flat
 *    ring's 2n stages are mostly switch latency;
 *  - the per-link bottleneck utilization names the limiting channel.
 *
 * Options: --smoke runs a single configuration (CI keeps it per-PR as
 * a canary with the CSV as an artifact), --csv writes the result rows
 * for regression diffing, --devices scales the node count.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/mcdla.hh"
#include "core/options.hh"

using namespace mcdla;

namespace
{

struct RunResult
{
    Tick latency = 0;
    std::string bottleneck;
    double bottleneckUtil = 0.0;
};

/** One all-reduce of @p bytes on a fresh fabric of @p kind. */
RunResult
runPoint(TopologyKind kind, CollectiveAlgorithm algo, double bytes,
         int devices)
{
    EventQueue eq;
    FabricConfig cfg;
    cfg.numDevices = devices;
    // radix = 2 * devices seats every node on a full-switch plane
    // exactly, and gives the fat-tree leaf slots for half the nodes —
    // two leaves plus a spine layer — whenever devices >= 2.
    cfg.switchRadix = std::max(4, 2 * devices);
    auto fabric = buildTopologyFabric(eq, cfg, kind);

    CollectiveConfig ccfg;
    ccfg.algorithm = algo;
    CollectiveEngine engine(eq, "abl.nccl", *fabric, ccfg);

    RunResult out;
    engine.launch(CollectiveKind::AllReduce, bytes,
                  [&] { out.latency = eq.now(); });
    eq.run();

    for (Channel *ch : fabric->channels()) {
        const double util = ch->utilization(out.latency);
        if (util > out.bottleneckUtil) {
            out.bottleneckUtil = util;
            out.bottleneck = ch->name();
        }
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("abl_topology",
                      "Interconnect ablation: topology x collective "
                      "algorithm x payload");
    opts.addFlag("smoke", "run a single configuration (CI canary)");
    opts.addString("csv", "", "write result rows to this CSV file");
    opts.addInt("devices", 16, "device-node count");
    if (!opts.parse(argc, argv, std::cerr))
        return 1;

    LogConfig::verbose = false;
    const bool smoke = opts.getFlag("smoke");
    const int devices = static_cast<int>(opts.getInt("devices"));

    const std::vector<TopologyKind> topologies = smoke
        ? std::vector<TopologyKind>{TopologyKind::Ring}
        : std::vector<TopologyKind>{
              TopologyKind::Ring, TopologyKind::FullSwitch,
              TopologyKind::Mesh2d, TopologyKind::Torus2d,
              TopologyKind::FatTree};
    const std::vector<CollectiveAlgorithm> algorithms = smoke
        ? std::vector<CollectiveAlgorithm>{CollectiveAlgorithm::Ring,
                                           CollectiveAlgorithm::Tree}
        : std::vector<CollectiveAlgorithm>{
              CollectiveAlgorithm::Ring, CollectiveAlgorithm::Tree,
              CollectiveAlgorithm::Hierarchical};
    const std::vector<double> payloads = smoke
        ? std::vector<double>{4e6}
        : std::vector<double>{64e3, 1e6, 16e6, 256e6};

    std::cout << "=== Topology x collective x payload all-reduce ("
              << devices << " devices) ===\n\n";

    ResultSet rows({"topology", "collective", "payload_mb",
                    "latency_us", "algbw_gbps", "bottleneck_channel",
                    "bottleneck_util"});
    for (double payload : payloads) {
        TablePrinter table({"Topology", "Collective", "Latency(us)",
                            "AlgBW(GB/s)", "Bottleneck link",
                            "Util"});
        for (TopologyKind kind : topologies) {
            for (CollectiveAlgorithm algo : algorithms) {
                const RunResult r =
                    runPoint(kind, algo, payload, devices);
                const double us =
                    ticksToSeconds(r.latency) * 1e6;
                const double algbw = us > 0.0
                    ? payload / (us * 1e-6) / 1e9
                    : 0.0;
                table.addRow(
                    {kTopologyKinds.token(kind),
                     kCollectiveAlgorithms.token(algo),
                     TablePrinter::num(us, 1),
                     TablePrinter::num(algbw, 2), r.bottleneck,
                     TablePrinter::num(r.bottleneckUtil, 3)});
                rows.addRow(
                    {std::string(kTopologyKinds.token(kind)),
                     std::string(kCollectiveAlgorithms.token(algo)),
                     payload / 1e6, us, algbw, r.bottleneck,
                     r.bottleneckUtil});
            }
        }
        std::cout << "-- " << payload / 1e6
                  << " MB all-reduce --\n";
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "Ring collectives saturate bandwidth for large "
                 "payloads; trees win the latency-bound small ones; "
                 "hierarchical splits the difference on switched "
                 "fabrics.\n";

    if (!opts.getString("csv").empty()) {
        std::ofstream out = openOutput(opts.getString("csv"));
        rows.writeCsv(out);
        std::cout << "\nwrote " << opts.getString("csv") << '\n';
    }
    return 0;
}
