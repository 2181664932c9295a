/**
 * @file
 * Ablation: critical-path attribution x execution mode.
 *
 * Runs the same machine (8-device MC-DLA(B)) through every execution
 * mode — dp/mp/pp training iterations, a seeded multi-job cluster run,
 * and a seeded serving run — with the CausalRecorder attached, then
 * extracts each run's simulated-time critical path and reports where
 * the makespan actually went: per wait-kind (compute, channel
 * occupancy, queueing, wire, scheduler, batching) and per subsystem
 * (main/collective/p2p/dma/cluster/serving). A what-if column shows
 * the predicted speedup from halving compute along the recorded DAG,
 * which is the number an optimization of the compute model could at
 * best deliver for that mode.
 *
 * Per-class rows (mode, group, class, wait_ms, share, edges) go to
 * --csv. --smoke runs the dp and serving points only (the CI canary).
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/mcdla.hh"
#include "core/options.hh"

using namespace mcdla;

namespace
{

/** One mode's recorded run, ready for analysis. */
struct ModeRun
{
    std::string mode;
    std::unique_ptr<CausalRecorder> recorder;
};

ModeRun
runTraining(const char *mode_token, ParallelMode mode)
{
    ModeRun run;
    run.mode = mode_token;
    run.recorder = std::make_unique<CausalRecorder>();
    Scenario sc;
    sc.workload = "AlexNet";
    sc.design = SystemDesign::McDlaB;
    sc.mode = mode;
    sc.globalBatch = 512;
    Simulator sim;
    Simulator::Hooks hooks;
    hooks.causal = run.recorder.get();
    sim.run(sc, hooks);
    return run;
}

ModeRun
runCluster()
{
    ModeRun run;
    run.mode = "cluster";
    run.recorder = std::make_unique<CausalRecorder>();
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.seed = 7;
    cfg.causal = run.recorder.get();
    Random rng(cfg.base.seed);
    std::vector<JobSpec> jobs = synthesizeJobs(
        4, /*arrival_rate=*/50.0, cfg.base.base.fabric.numDevices,
        rng);
    Cluster cluster(cfg, std::move(jobs));
    cluster.run();
    return run;
}

ModeRun
runServing()
{
    ModeRun run;
    run.mode = "serve";
    run.recorder = std::make_unique<CausalRecorder>();
    ServingConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.workload = "AlexNet";
    cfg.base.serve = true;
    cfg.base.replicas = 2;
    cfg.base.globalBatch = 8;
    cfg.base.sloMs = 50.0;
    cfg.base.seed = 5;
    cfg.causal = run.recorder.get();
    Random rng(cfg.base.seed);
    std::vector<Request> stream = synthesizeRequests(
        20, /*rate=*/200.0, ArrivalKind::Poisson, rng);
    ServingCluster serving(cfg, std::move(stream));
    serving.run();
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("abl_critical_path",
                      "Critical-path attribution across execution "
                      "modes");
    opts.addFlag("smoke", "run the dp and serving points only "
                          "(CI canary)");
    opts.addString("csv", "",
                   "write per-class attribution rows to this CSV file");
    if (!opts.parse(argc, argv, std::cerr))
        return 1;

    LogConfig::verbose = false;
    const bool smoke = opts.getFlag("smoke");

    std::vector<ModeRun> runs;
    runs.push_back(runTraining("dp", ParallelMode::DataParallel));
    if (!smoke) {
        runs.push_back(runTraining("mp", ParallelMode::ModelParallel));
        runs.push_back(runTraining("pp", ParallelMode::Pipeline));
        runs.push_back(runCluster());
    }
    runs.push_back(runServing());

    std::cout << "=== Critical-path attribution: AlexNet on 8-device "
                 "MC-DLA(B) ===\n\n";

    std::vector<std::string> columns = {"mode"};
    ResultSet probe({"group", "class", "wait_ms", "share", "edges"});
    for (const std::string &column : probe.columns())
        columns.push_back(column);
    ResultSet rows(columns);

    TablePrinter table({"Mode", "Makespan(ms)", "PathEdges",
                        "TopKind", "TopSubsystem",
                        "Whatif compute:0.5"});
    for (const ModeRun &run : runs) {
        const CausalAnalysis analysis(*run.recorder);
        const double makespan_ms =
            ticksToSeconds(analysis.makespan()) * 1e3;

        // Name the dominant wait kind and subsystem on the path.
        WaitKind top_kind = WaitKind::Control;
        Tick top_kind_ticks = 0;
        for (std::size_t k = 0; k < kWaitKindCount; ++k) {
            const Tick t =
                analysis.pathKindTicks(static_cast<WaitKind>(k));
            if (t > top_kind_ticks) {
                top_kind_ticks = t;
                top_kind = static_cast<WaitKind>(k);
            }
        }
        CausalCtx top_ctx = CausalCtx::None;
        Tick top_ctx_ticks = 0;
        for (std::size_t c = 0; c < kCausalCtxCount; ++c) {
            const Tick t =
                analysis.pathCtxTicks(static_cast<CausalCtx>(c));
            if (t > top_ctx_ticks) {
                top_ctx_ticks = t;
                top_ctx = static_cast<CausalCtx>(c);
            }
        }

        const WhatIfResult whatif =
            analysis.whatIf({{"compute", 0.5}});

        table.addRow(
            {run.mode, TablePrinter::num(makespan_ms, 3),
             std::to_string(analysis.criticalPath().size()),
             waitKindToken(top_kind), causalCtxToken(top_ctx),
             TablePrinter::num(whatif.speedup(), 3) + "x"});

        const ResultSet attribution = analysis.attributionTable();
        for (std::size_t r = 0; r < attribution.rowCount(); ++r) {
            std::vector<ReportValue> row = {run.mode};
            for (std::size_t c = 0; c < attribution.columns().size();
                 ++c)
                row.push_back(attribution.cell(r, c));
            rows.addRow(std::move(row));
        }
    }
    table.print(std::cout);
    std::cout << "\n(what-if: predicted speedup from halving compute "
                 "along the recorded DAG;\n assumes the recorded "
                 "binding dependencies keep binding)\n";

    if (!opts.getString("csv").empty()) {
        std::ofstream out = openOutput(opts.getString("csv"));
        rows.writeCsv(out);
        std::cout << "\nwrote " << opts.getString("csv") << " ("
                  << rows.rowCount() << " rows)\n";
    }
    return 0;
}
