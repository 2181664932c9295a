/**
 * @file
 * mcdla_sim: the command-line driver of the simulator.
 *
 * Runs one (or every) registered workload on a chosen system design and
 * parallelization, with overrides for the interesting knobs (device
 * generation, PCIe generation, link bandwidth, DIMM type, batch size,
 * device count, page policy, compression). Option resolution lives in
 * Scenario::fromOptions; execution goes through the Simulator facade,
 * with a SweepRunner thread pool when --jobs asks for parallelism.
 * Emits a human-readable summary plus optional CSV/JSON result rows, a
 * Chrome-tracing timeline of the iteration, and a full gem5-style
 * statistics dump.
 *
 * --cluster switches to the multi-job mode: a stream of training jobs
 * (from --job-trace, or --jobs synthetic Poisson arrivals at
 * --arrival-rate over the job-mix catalog, seeded by --seed) is
 * scheduled onto one shared machine by --scheduler, with backing
 * stores carved from the shared memory pool by --allocator. --csv then
 * emits the per-job ClusterReport rows and --pool-csv the pool
 * occupancy/fragmentation timeline.
 *
 * --serve switches to the inference-serving mode: --replicas model
 * replicas of --workload answer an open-loop request stream (from
 * --request-trace, or --requests synthetic arrivals at --request-rate
 * under --arrivals, seeded by --seed), coalesced by --batch-policy
 * (capped at --batch samples), routed by --router against an --slo-ms
 * objective. A --job-trace co-locates training jobs on the remaining
 * devices so serving-under-training interference is measured. --csv
 * emits the per-request rows, --replica-csv the per-replica
 * utilization table.
 *
 * The interconnect is a sweep axis of its own: --topology rewires the
 * memory-centric node set through the generic Topology generators
 * (ring, full-switch, 2-D mesh/torus, fat-tree; --list-topologies
 * shows the catalog), --collective selects the collective algorithm
 * family (ring, tree, hierarchical), and --channel-csv emits
 * per-channel link-utilization rows so the bottleneck *link* of a run
 * can be named, not just the bottleneck stage.
 *
 * Examples:
 *   mcdla_sim --design mc-b --workload VGG-E --mode dp --batch 512
 *   mcdla_sim --workload all --design dc --jobs 4 --csv results.csv
 *   mcdla_sim --design mc-b --trace timeline.json --stats
 *   mcdla_sim --design mc-b --topology torus2d --collective tree \
 *       --channel-csv links.csv
 *   mcdla_sim --cluster --jobs 12 --arrival-rate 40 --seed 7 \
 *       --scheduler backfill --allocator buddy --placement compact \
 *       --csv jobs.csv
 */

#include <cctype>
#include <fstream>
#include <iostream>

#include "core/mcdla.hh"
#include "core/options.hh"
#include "sim/simcheck.hh"

using namespace mcdla;

namespace
{

/**
 * The observer bundle resolved from --trace / --trace-categories /
 * --metrics-* / --profile / the causal options. Tracing implies a
 * metrics registry even without a --metrics-* file so the timeline
 * gains counter tracks. `attached` points at the observers the options
 * ask for; every mode runs with it.
 */
struct Observers
{
    explicit Observers(const OptionParser &opts);
    /// `attached` points into this bundle.
    Observers(const Observers &) = delete;
    Observers &operator=(const Observers &) = delete;

    bool
    any() const
    {
        return attached.trace != nullptr || attached.metrics != nullptr
            || attached.profiler != nullptr || attached.causal != nullptr;
    }

    TraceSink trace;
    MetricRegistry metrics;
    DesProfiler profiler;
    CausalRecorder causal;
    ObserverSet attached;
};

Observers::Observers(const OptionParser &opts)
{
    const bool want_trace = !opts.getString("trace").empty();
    if (want_trace)
        attached.trace = &trace;
    if (want_trace || !opts.getString("metrics-csv").empty()
        || !opts.getString("metrics-json").empty())
        attached.metrics = &metrics;
    if (opts.getFlag("profile") || !opts.getString("profile-json").empty())
        attached.profiler = &profiler;
    if (opts.getFlag("causal")
        || !opts.getString("critical-path-csv").empty()
        || !opts.getString("causal-json").empty()
        || !opts.getString("slack-csv").empty()
        || !opts.getString("whatif").empty())
        attached.causal = &causal;

    if (want_trace && !opts.getString("trace-categories").empty()) {
        std::vector<std::string> cats;
        std::string cat;
        for (char c : opts.getString("trace-categories")) {
            if (c == ',') {
                if (!cat.empty())
                    cats.push_back(std::move(cat));
                cat.clear();
            } else if (c != ' ') {
                cat += c;
            }
        }
        if (!cat.empty())
            cats.push_back(std::move(cat));
        trace.enableCategories(cats);
    }
    if (attached.metrics != nullptr) {
        const std::int64_t period_us = opts.getInt("metrics-period-us");
        if (period_us < 1)
            fatal("--metrics-period-us must be positive (got %lld)",
                  static_cast<long long>(period_us));
        metrics.setPeriod(static_cast<Tick>(period_us) * ticksPerUs);
    }
}

/** "t.json" + "VGG-E" -> "t.VGG-E.json" (suffix sanitized). */
std::string
suffixedPath(const std::string &path, const std::string &suffix)
{
    if (path.empty() || suffix.empty())
        return path;
    std::string tag;
    for (char c : suffix)
        tag += std::isalnum(static_cast<unsigned char>(c)) != 0
            ? c : '-';
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos || dot == 0)
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

/** Write the trace/metrics/causal files and the profiler reports. */
void
writeObserverOutputs(const OptionParser &opts, Observers &obs,
                     const std::string &suffix = "")
{
    // Causal analysis runs first so the critical path can be overlaid
    // on the timeline before the trace file is written below.
    if (obs.attached.causal != nullptr) {
        const CausalAnalysis analysis(obs.causal);
        if (obs.attached.trace != nullptr)
            analysis.overlayTrace(obs.trace);
        analysis.report(std::cout);
        if (!opts.getString("critical-path-csv").empty()) {
            const std::string path = suffixedPath(
                opts.getString("critical-path-csv"), suffix);
            std::ofstream out(path);
            analysis.criticalPathTable().writeCsv(out);
            std::cout << "wrote " << path << " ("
                      << analysis.criticalPath().size()
                      << " critical-path events)\n";
        }
        if (!opts.getString("slack-csv").empty()) {
            const std::string path =
                suffixedPath(opts.getString("slack-csv"), suffix);
            std::ofstream out(path);
            analysis.slackTable().writeCsv(out);
            std::cout << "wrote " << path << '\n';
        }
        if (!opts.getString("causal-json").empty()) {
            const std::string path =
                suffixedPath(opts.getString("causal-json"), suffix);
            std::ofstream out(path);
            analysis.writeJson(out);
            std::cout << "wrote " << path << '\n';
        }
        if (!opts.getString("whatif").empty()) {
            const std::vector<WhatIfChange> changes =
                parseWhatIfSpec(opts.getString("whatif"));
            const WhatIfResult result = analysis.whatIf(changes);
            std::cout << "whatif " << opts.getString("whatif")
                      << ": predicted makespan "
                      << TablePrinter::num(
                             ticksToSeconds(static_cast<Tick>(
                                 result.predicted)) * 1e3, 3)
                      << " ms (baseline "
                      << TablePrinter::num(
                             ticksToSeconds(result.baseline) * 1e3, 3)
                      << " ms, speedup "
                      << TablePrinter::num(result.speedup(), 3) << "x, "
                      << result.scaledEdges << " edges rescaled)\n";
        }
    }
    if (obs.attached.trace != nullptr) {
        const std::string path =
            suffixedPath(opts.getString("trace"), suffix);
        std::ofstream out(path);
        obs.trace.write(out);
        std::cout << "wrote " << path << " (" << obs.trace.eventCount()
                  << " events, " << obs.trace.processCount()
                  << " processes)\n";
    }
    if (!opts.getString("metrics-csv").empty()) {
        const std::string path =
            suffixedPath(opts.getString("metrics-csv"), suffix);
        std::ofstream out(path);
        metricsTable(obs.metrics).writeCsv(out);
        std::cout << "wrote " << path << " ("
                  << obs.metrics.sampleCount() << " samples of "
                  << obs.metrics.metricCount() << " metrics)\n";
    }
    if (!opts.getString("metrics-json").empty()) {
        const std::string path =
            suffixedPath(opts.getString("metrics-json"), suffix);
        std::ofstream out(path);
        metricsTable(obs.metrics).writeJson(out);
        std::cout << "wrote " << path << '\n';
    }
    if (opts.getFlag("profile"))
        obs.profiler.report(std::cout);
    if (!opts.getString("profile-json").empty()) {
        const std::string path =
            suffixedPath(opts.getString("profile-json"), suffix);
        std::ofstream out(path);
        obs.profiler.reportJson(out);
        std::cout << "wrote " << path << '\n';
    }
}

/**
 * Run --serve as the options describe it: the replicas, the co-located
 * --job-trace jobs and the request stream (--request-trace, or the
 * seeded synthetic one), with @p observers attached.
 */
ServingReport
serveFromOptions(const OptionParser &opts, const Scenario &prototype,
                 const ObserverSet &observers, bool progress)
{
    ServingConfig cfg;
    static_cast<ObserverSet &>(cfg) = observers;
    cfg.base = prototype;
    cfg.allocator = parsePoolAllocator(opts.getString("allocator"));
    cfg.progress = progress;
    if (!opts.getString("job-trace").empty())
        cfg.trainingJobs = loadJobTrace(opts.getString("job-trace"));
    std::vector<Request> stream;
    if (!opts.getString("request-trace").empty()) {
        stream = loadRequestTrace(opts.getString("request-trace"));
    } else {
        Random rng(prototype.seed);
        stream = synthesizeRequests(static_cast<int>(prototype.requests),
                                    prototype.requestRate,
                                    prototype.arrivals, rng);
    }
    return ServingCluster(cfg, std::move(stream)).run();
}

/**
 * Run --cluster as the options describe it: the policies and the job
 * stream (--job-trace, or --jobs seeded synthetic arrivals), with
 * @p observers attached.
 */
ClusterReport
clusterFromOptions(const OptionParser &opts, const Scenario &prototype,
                   const ObserverSet &observers, bool progress)
{
    ClusterConfig cfg;
    static_cast<ObserverSet &>(cfg) = observers;
    cfg.base = prototype;
    cfg.scheduler = parseScheduler(opts.getString("scheduler"));
    cfg.allocator = parsePoolAllocator(opts.getString("allocator"));
    cfg.placement = parseJobPlacement(opts.getString("placement"));
    cfg.progress = progress;
    std::vector<JobSpec> jobs;
    if (!opts.getString("job-trace").empty()) {
        jobs = loadJobTrace(opts.getString("job-trace"));
    } else {
        const int count =
            opts.wasSet("jobs") ? static_cast<int>(opts.getInt("jobs")) : 8;
        Random rng(prototype.seed);
        jobs = synthesizeJobs(count, opts.getDouble("arrival-rate"),
                              prototype.base.fabric.numDevices, rng);
    }
    return Cluster(cfg, std::move(jobs)).run();
}

/** One --audit-determinism run: the event-stream digest and counts. */
struct AuditRun
{
    std::uint64_t streamHash = 0;
    std::uint64_t executed = 0;
    std::size_t peakPending = 0;
};

/**
 * Execute the selected mode (sweep/cluster/serve) once from fresh
 * state with a DesProfiler attached, returning the (tick, label)
 * stream digest, the event count and the peak number of pending
 * events. Observer and table output stay off: the audit only cares
 * about the executed event stream.
 */
AuditRun
auditRunOnce(const OptionParser &opts, const Scenario &prototype)
{
    DesProfiler profiler;
    Simulator::Hooks hooks;
    hooks.profiler = &profiler;
    if (prototype.serve) {
        (void)serveFromOptions(opts, prototype, hooks, false);
    } else if (opts.getFlag("cluster")) {
        (void)clusterFromOptions(opts, prototype, hooks, false);
    } else {
        // A fresh Simulator per run: the network cache is read-only
        // after construction, but the audit should not share *any*
        // state between its two runs.
        Simulator sim;
        (void)sim.run(prototype, hooks);
    }
    return {profiler.streamHash(), profiler.eventsExecuted(),
            profiler.peakHeapDepth()};
}

/**
 * --audit-determinism: run the scenario twice from fresh state with
 * the same seed and compare the executed event streams. Divergence
 * means hidden state leaked into the simulation (host pointers used
 * as keys, uninitialized reads, a stray non-seeded RNG).
 */
int
auditDeterminism(const OptionParser &opts, const Scenario &prototype)
{
    const char *mode = prototype.serve ? "serve"
        : opts.getFlag("cluster")      ? "cluster"
                                       : parallelModeName(prototype.mode);
    const AuditRun first = auditRunOnce(opts, prototype);
    const AuditRun second = auditRunOnce(opts, prototype);
    if (first.streamHash != second.streamHash
        || first.executed != second.executed
        || first.peakPending != second.peakPending) {
        std::cerr << "determinism audit FAILED (" << mode << ", seed "
                  << prototype.seed << "): run 1 executed "
                  << first.executed << " events (peak "
                  << first.peakPending << " pending, stream hash "
                  << std::hex << first.streamHash << "), run 2 "
                  << std::dec << second.executed << " (peak "
                  << second.peakPending << " pending, stream hash "
                  << std::hex << second.streamHash << std::dec
                  << ")\n";
        return 1;
    }
    std::cout << "determinism audit passed (" << mode << ", seed "
              << prototype.seed << "): " << first.executed
              << " events, peak " << first.peakPending
              << " pending, stream hash " << std::hex
              << first.streamHash << std::dec << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts(
        "mcdla_sim",
        "Memory-centric DL system simulator (MICRO-51 2018 "
        "reproduction)");
    Scenario::addOptions(opts);
    opts.addInt("jobs", 1,
                "sweep worker threads (0 = hardware concurrency); "
                "with --cluster: synthetic job count (default 8)");
    opts.addFlag("cluster",
                 "multi-job cluster mode (see --scheduler/--allocator)");
    opts.addString("scheduler", "fifo",
                   "cluster job scheduler: " + schedulerTokenList());
    opts.addString("allocator", "first-fit",
                   "cluster pool allocator: " + poolAllocatorTokenList());
    opts.addString("placement", "first",
                   "cluster device placement: "
                       + jobPlacementTokenList());
    opts.addDouble("arrival-rate", 25.0,
                   "synthetic job arrival rate, jobs/sec (--cluster)");
    opts.addString("job-trace", "",
                   "job trace file (key=value lines; overrides the "
                   "synthetic stream; with --serve: co-located "
                   "training jobs)");
    opts.addString("request-trace", "",
                   "request trace file (key=value lines; overrides "
                   "the synthetic stream; --serve)");
    opts.addString("replica-csv", "",
                   "write the per-replica serving utilization table "
                   "to this CSV file (--serve)");
    opts.addString("pool-csv", "",
                   "write the cluster pool timeline to this CSV file");
    opts.addString("csv", "", "write result rows to this CSV file");
    opts.addString("json", "", "write result rows to this JSON file");
    opts.addString("channel-csv", "",
                   "write per-channel link-utilization rows to this "
                   "CSV file (non-cluster runs)");
    opts.addString("trace", "",
                   "write a Chrome-tracing (Perfetto) timeline: "
                   "compute/DMA/collective spans, counter tracks, and "
                   "flow arrows; works with sweeps, --cluster and "
                   "--serve (with --workload all each scenario writes "
                   "its own suffixed file)");
    opts.addString("trace-categories", "",
                   "comma-separated trace category filter (op, dma, "
                   "sync, counter, flow, job, batch, request, queue, "
                   "mark; default: all)");
    opts.addString("metrics-csv", "",
                   "write the periodically sampled metrics time-series "
                   "to this CSV file");
    opts.addString("metrics-json", "",
                   "write the metrics time-series to this JSON file");
    opts.addInt("metrics-period-us", 100,
                "metrics sampling period in simulated microseconds");
    opts.addFlag("profile",
                 "print a DES wall-clock profile (host time per event "
                 "label, events/sec, heap depth) after the run");
    opts.addString("profile-json", "",
                   "write the DES profile (kernel counters, stream "
                   "hash, per-label wall time) to this JSON file");
    opts.addFlag("causal",
                 "record event provenance and print the "
                 "simulated-time critical-path attribution after the "
                 "run (execution order is unchanged)");
    opts.addString("critical-path-csv", "",
                   "write the critical-path steps to this CSV file "
                   "(implies --causal)");
    opts.addString("slack-csv", "",
                   "write the per-channel slack histogram — measured "
                   "safe parallel-DES lookahead — to this CSV file "
                   "(implies --causal)");
    opts.addString("causal-json", "",
                   "write the causal attribution/slack/DAG summary to "
                   "this JSON file (implies --causal)");
    opts.addString("whatif", "",
                   "predict the makespan under virtual speedups along "
                   "the recorded DAG: class:factor[,class:factor...] "
                   "e.g. compute:0.5,chan:0.8 (implies --causal)");
    opts.addFlag("stats", "dump component statistics after the run");
    opts.addFlag("list", "alias for --list-workloads");
    opts.addFlag("list-workloads",
                 "print the workload-registry catalog and exit");
    opts.addFlag("list-designs",
                 "print the supported system designs and exit");
    opts.addFlag("list-topologies",
                 "print the interconnect topology catalog and exit");
    opts.addFlag("list-schedulers",
                 "print the cluster scheduler catalog and exit");
    opts.addFlag("list-batch-policies",
                 "print the serving batch-policy and router catalogs "
                 "and exit");
    opts.addFlag("quiet", "suppress informational output");
    opts.addFlag("simcheck",
                 "enable the runtime invariant checks (SimCheck) for "
                 "this run, whatever the build default");
    opts.addFlag("audit-determinism",
                 "run the scenario twice with the same seed and fail "
                 "unless the executed (tick, label) event streams "
                 "hash identically and peak at the same depth");

    if (!opts.parse(argc, argv, std::cerr))
        return 1;

    if (opts.getFlag("list") || opts.getFlag("list-workloads")) {
        TablePrinter table({"Network", "Application",
                            "Layers/Timesteps"});
        for (const WorkloadInfo *info :
             WorkloadRegistry::instance().all())
            table.addRow({info->name, info->application,
                          std::to_string(info->depth)});
        table.print(std::cout);
        return 0;
    }
    if (opts.getFlag("list-designs")) {
        TablePrinter table({"Token", "Design", "Backing store",
                            "Page policy"});
        for (SystemDesign design : allSystemDesigns()) {
            SystemConfig cfg;
            cfg.design = design;
            const char *backing = !designVirtualizesMemory(design)
                ? "none (infinite local)"
                : (designUsesHostMemory(design) ? "host DRAM"
                                                : "memory nodes");
            table.addRow({systemDesignToken(design),
                          systemDesignName(design), backing,
                          designVirtualizesMemory(design)
                              ? pagePolicyName(cfg.pagePolicy())
                              : "-"});
        }
        table.print(std::cout);
        return 0;
    }
    if (opts.getFlag("list-topologies")) {
        // Instantiate each generic wiring at the default 8-device
        // scale so the catalog shows real node/link/ring counts.
        TablePrinter table({"Token", "Topology", "Nodes", "Links",
                            "Rings", "Notes"});
        for (TopologyKind kind : allTopologyKinds()) {
            if (kind == TopologyKind::Design) {
                table.addRow({topologyKindToken(kind),
                              topologyKindName(kind), "-", "-", "-",
                              "the system design's own wiring"});
                continue;
            }
            EventQueue eq;
            FabricConfig cfg; // default radix 18: fat-tree shows its
                              // two-level leaf/spine structure at n=8
            auto fab = buildTopologyFabric(eq, cfg, kind);
            const Topology &topo = fab->topology();
            std::string nodes;
            for (NodeKind nk : {NodeKind::Device, NodeKind::MemoryNode,
                                NodeKind::Switch}) {
                const int count = topo.count(nk);
                if (count == 0)
                    continue;
                if (!nodes.empty())
                    nodes += "+";
                nodes += std::to_string(count) + nodeKindTag(nk);
            }
            table.addRow({topologyKindToken(kind),
                          topologyKindName(kind), nodes,
                          std::to_string(topo.links().size()),
                          std::to_string(fab->rings().size()),
                          fab->router().fullyConnected()
                              ? "all-pairs routable"
                              : "partially connected"});
        }
        table.print(std::cout);
        std::cout << "\nUse --topology <token> with a memory-centric "
                     "design (and --collective ring|tree|hierarchical "
                     "to pick the collective algorithm).\n";
        return 0;
    }
    if (opts.getFlag("list-schedulers")) {
        TablePrinter table({"Token", "Scheduler"});
        for (SchedulerKind kind : allSchedulers())
            table.addRow({schedulerToken(kind),
                          schedulerDescription(kind)});
        table.print(std::cout);
        std::cout << "\nUse --scheduler <token> with --cluster.\n";
        return 0;
    }
    if (opts.getFlag("list-batch-policies")) {
        TablePrinter policies({"Token", "Batch policy"});
        for (BatchPolicyKind kind : allBatchPolicies())
            policies.addRow({batchPolicyToken(kind),
                             batchPolicyDescription(kind)});
        policies.print(std::cout);
        std::cout << '\n';
        TablePrinter routers({"Token", "Router"});
        for (RouterKind kind : allRouters())
            routers.addRow({routerToken(kind),
                            routerDescription(kind)});
        routers.print(std::cout);
        std::cout << "\nUse --batch-policy/--router <token> with "
                     "--serve.\n";
        return 0;
    }
    if (opts.getFlag("quiet"))
        LogConfig::verbose = false;
    if (opts.getFlag("simcheck"))
        simcheck::setEnabled(true);

    const Scenario prototype = Scenario::fromOptions(opts);

    if (opts.getFlag("audit-determinism")) {
        if (prototype.workload == "all")
            fatal("--audit-determinism audits one scenario; pick a "
                  "--workload");
        return auditDeterminism(opts, prototype);
    }

    if (prototype.serve) {
        if (opts.getFlag("cluster"))
            fatal("--serve and --cluster are mutually exclusive");
        if (!opts.getString("channel-csv").empty())
            warn("--channel-csv applies to single-machine sweeps; "
                 "ignoring it in --serve mode");
        if (opts.getFlag("stats"))
            warn("--stats applies to single-machine sweeps; ignoring "
                 "it in --serve mode");
        Observers obs(opts);
        const ServingReport report = serveFromOptions(
            opts, prototype, obs.attached, LogConfig::verbose);

        std::cout << systemDesignName(prototype.design) << " serving, "
                  << prototype.workload << " x" << prototype.replicas
                  << " replicas (max batch " << prototype.globalBatch
                  << "), " << batchPolicyToken(report.batchPolicy)
                  << " batching, " << routerToken(report.router)
                  << " router, SLO " << prototype.sloMs << " ms";
        if (!report.trainingJobs.empty())
            std::cout << ", " << report.trainingJobs.size()
                      << " co-located training job"
                      << (report.trainingJobs.size() == 1 ? "" : "s");
        std::cout << "\n\n";

        TablePrinter table({"Replica", "Device", "Batches", "Samples",
                            "MeanBatch", "Busy(s)", "Util",
                            "EWMA(ms/sample)", "PeakQueue"});
        for (std::size_t r = 0; r < report.replicas.size(); ++r) {
            const ReplicaStats &stats = report.replicas[r];
            table.addRow(
                {std::to_string(r), std::to_string(stats.device),
                 std::to_string(stats.batches),
                 std::to_string(stats.samplesServed),
                 TablePrinter::num(stats.meanBatchSamples(), 2),
                 TablePrinter::num(stats.busySec, 3),
                 TablePrinter::num(report.makespanSec > 0.0
                                       ? stats.busySec
                                           / report.makespanSec
                                       : 0.0,
                                   3),
                 TablePrinter::num(stats.ewmaPerSampleSec * 1e3, 3),
                 std::to_string(stats.peakQueueSamples)});
        }
        table.print(std::cout);

        std::cout << '\n'
                  << report.completedRequests() << '/'
                  << report.requests.size() << " requests completed ("
                  << report.droppedRequests()
                  << " shed); throughput "
                  << TablePrinter::num(report.throughputRps(), 1)
                  << " req/s, mean batch "
                  << TablePrinter::num(report.meanBatchSamples(), 2)
                  << " samples, makespan "
                  << TablePrinter::num(report.makespanSec, 3)
                  << " s\nlatency: mean "
                  << TablePrinter::num(report.meanLatencyMs(), 2)
                  << " ms, p50 "
                  << TablePrinter::num(
                         report.latencyPercentileMs(50.0), 2)
                  << " ms, p95 "
                  << TablePrinter::num(
                         report.latencyPercentileMs(95.0), 2)
                  << " ms, p99 "
                  << TablePrinter::num(
                         report.latencyPercentileMs(99.0), 2)
                  << " ms; SLO violations "
                  << TablePrinter::num(
                         report.sloViolationRate() * 100.0, 1)
                  << "%\n";
        for (const JobOutcome &job : report.trainingJobs) {
            std::cout << "training " << job.spec.name << " ("
                      << job.spec.workload << ", "
                      << job.spec.devices << " devs): ";
            if (job.completed)
                std::cout << "JCT "
                          << TablePrinter::num(job.jctSec(), 3)
                          << " s, slowdown "
                          << TablePrinter::num(job.slowdown(), 2)
                          << '\n';
            else
                std::cout << (job.rejected ? "rejected"
                                           : "incomplete")
                          << '\n';
        }

        if (!opts.getString("csv").empty()) {
            std::ofstream out(opts.getString("csv"));
            report.requestTable().writeCsv(out);
            std::cout << "\nwrote " << opts.getString("csv") << '\n';
        }
        if (!opts.getString("json").empty()) {
            std::ofstream out(opts.getString("json"));
            report.requestTable().writeJson(out);
            std::cout << "wrote " << opts.getString("json") << '\n';
        }
        if (!opts.getString("replica-csv").empty()) {
            std::ofstream out(opts.getString("replica-csv"));
            report.replicaTable().writeCsv(out);
            std::cout << "wrote " << opts.getString("replica-csv")
                      << '\n';
        }
        writeObserverOutputs(opts, obs);
        return 0;
    }

    if (opts.getFlag("cluster")) {
        if (!opts.getString("channel-csv").empty())
            warn("--channel-csv applies to single-machine sweeps; "
                 "ignoring it in --cluster mode");
        if (opts.getFlag("stats"))
            warn("--stats applies to single-machine sweeps; ignoring "
                 "it in --cluster mode");
        Observers obs(opts);
        const ClusterReport report = clusterFromOptions(
            opts, prototype, obs.attached, LogConfig::verbose);

        std::cout << systemDesignName(prototype.design) << " cluster, "
                  << prototype.base.fabric.numDevices << " devices, "
                  << schedulerToken(report.scheduler) << " scheduler, "
                  << poolAllocatorToken(report.allocator)
                  << " pool allocator, "
                  << jobPlacementToken(report.placement)
                  << " placement\n\n";
        TablePrinter table({"Job", "Workload", "Devs", "Arrive(s)",
                            "Queue(s)", "Service(s)", "JCT(s)",
                            "Slowdown", "Status"});
        for (const JobOutcome &job : report.jobs) {
            table.addRow(
                {job.spec.name, job.spec.workload,
                 std::to_string(job.spec.devices),
                 TablePrinter::num(job.arrivalSec, 3),
                 TablePrinter::num(
                     job.completed ? job.queueSec() : 0.0, 3),
                 TablePrinter::num(
                     job.completed ? job.serviceSec() : 0.0, 3),
                 TablePrinter::num(
                     job.completed ? job.jctSec() : 0.0, 3),
                 TablePrinter::num(
                     job.completed ? job.slowdown() : 0.0, 2),
                 job.rejected
                     ? "rejected"
                     : (job.completed ? "completed" : "incomplete")});
        }
        table.print(std::cout);
        std::cout << '\n'
                  << report.completedJobs() << '/' << report.jobs.size()
                  << " jobs completed; mean JCT "
                  << report.meanJctSec() << " s (p50 "
                  << TablePrinter::num(report.jctPercentileSec(50.0), 3)
                  << ", p95 "
                  << TablePrinter::num(report.jctPercentileSec(95.0), 3)
                  << ", p99 "
                  << TablePrinter::num(report.jctPercentileSec(99.0), 3)
                  << "), mean queue "
                  << report.meanQueueSec() << " s, makespan "
                  << report.makespanSec << " s\npool: peak "
                  << report.peakPoolUtilization() * 100.0
                  << "% of "
                  << static_cast<double>(report.poolCapacity)
                     / static_cast<double>(kGiB)
                  << " GiB, mean fragmentation "
                  << report.meanFragmentation() << ", "
                  << report.allocationFailures
                  << " allocation failures\n";

        if (!opts.getString("csv").empty()) {
            std::ofstream out(opts.getString("csv"));
            report.jobTable().writeCsv(out);
            std::cout << "\nwrote " << opts.getString("csv") << '\n';
        }
        if (!opts.getString("json").empty()) {
            std::ofstream out(opts.getString("json"));
            report.jobTable().writeJson(out);
            std::cout << "wrote " << opts.getString("json") << '\n';
        }
        if (!opts.getString("pool-csv").empty()) {
            std::ofstream out(opts.getString("pool-csv"));
            report.poolTable().writeCsv(out);
            std::cout << "wrote " << opts.getString("pool-csv")
                      << '\n';
        }
        writeObserverOutputs(opts, obs);
        return 0;
    }

    std::vector<Scenario> scenarios;
    if (prototype.workload == "all") {
        for (const std::string &name :
             WorkloadRegistry::instance().names()) {
            Scenario sc = prototype;
            sc.workload = name;
            scenarios.push_back(std::move(sc));
        }
    } else {
        WorkloadRegistry::instance().at(prototype.workload);
        scenarios.push_back(prototype);
    }

    // The observers (--trace/--metrics-*/--profile/--stats) need a
    // serial run over the live System; otherwise the sweep runner
    // handles any thread count. An explicit parallel request alongside
    // an observer is a contradiction, not a preference — reject it
    // instead of silently downgrading.
    const bool observed = Observers(opts).any() || opts.getFlag("stats");
    if (observed && opts.getInt("jobs") != 1)
        fatal("--trace/--metrics-*/--profile/--stats/--causal observe "
              "one live serial run; drop --jobs (or set --jobs 1). "
              "With --workload all the scenarios run serially and "
              "each observer file gains a per-workload suffix.");

    SweepRunner runner(SweepConfig{
        observed ? 1 : static_cast<int>(opts.getInt("jobs")),
        /*progress=*/false});

    // Keep the raw IterationResults so --channel-csv can emit the
    // per-channel link-utilization rows next to the summary table.
    std::vector<IterationResult> iter_results;
    if (observed) {
        // Each scenario gets a fresh observer set (a shared
        // MetricRegistry would re-register its gauges), and its
        // outputs go to per-workload suffixed files when the sweep
        // has more than one scenario.
        const bool multi = scenarios.size() > 1;
        for (const Scenario &sc : scenarios) {
            Observers obs(opts);
            Simulator::Hooks hooks;
            static_cast<ObserverSet &>(hooks) = obs.attached;
            if (opts.getFlag("stats"))
                hooks.stats = &std::cout;
            iter_results.push_back(runner.simulator().run(sc, hooks));
            if (obs.attached.profiler != nullptr && multi)
                std::cout << '\n' << sc.label() << ":\n";
            writeObserverOutputs(opts, obs,
                                 multi ? sc.workload : "");
        }
    } else {
        iter_results = runner.run(scenarios);
    }
    ResultSet results(SweepRunner::resultColumns());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        results.addRow(SweepRunner::resultRow(scenarios[i],
                                              iter_results[i]));

    TablePrinter table({"Workload", "Iter(ms)", "Compute(ms)",
                        "Sync(ms)", "Vmem(ms)", "Host(GB)",
                        "Events"});
    for (std::size_t r = 0; r < results.rowCount(); ++r) {
        auto num = [&](std::size_t col, int digits) {
            return TablePrinter::num(
                std::get<double>(results.cell(r, col)), digits);
        };
        table.addRow({scenarios[r].workload, num(4, 2), num(5, 2),
                      num(6, 2), num(7, 2), num(8, 2),
                      std::to_string(std::get<std::int64_t>(
                          results.cell(r, 10)))});
    }

    std::cout << systemDesignName(prototype.design) << ", "
              << parallelModeName(prototype.mode) << ", batch "
              << prototype.globalBatch << ", "
              << prototype.base.fabric.numDevices << " devices ("
              << opts.getString("device-gen") << "-class)\n\n";
    table.print(std::cout);

    if (!opts.getString("csv").empty()) {
        std::ofstream out(opts.getString("csv"));
        results.writeCsv(out);
        std::cout << "\nwrote " << opts.getString("csv") << '\n';
    }
    if (!opts.getString("json").empty()) {
        std::ofstream out(opts.getString("json"));
        results.writeJson(out);
        std::cout << "\nwrote " << opts.getString("json") << '\n';
    }
    if (!opts.getString("channel-csv").empty()) {
        ResultSet channel_table(channelUsageColumns());
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            appendChannelUsageRows(channel_table,
                                   scenarios[i].label(),
                                   iter_results[i]);
        std::ofstream out(opts.getString("channel-csv"));
        channel_table.writeCsv(out);
        // Headline the worst link across the whole sweep, named by
        // the scenario it bottlenecked.
        const ChannelUsage *bottleneck = nullptr;
        const Scenario *bottleneck_sc = nullptr;
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const ChannelUsage *worst =
                iter_results[i].bottleneckChannel();
            if (worst != nullptr
                && (bottleneck == nullptr
                    || worst->utilization
                        > bottleneck->utilization)) {
                bottleneck = worst;
                bottleneck_sc = &scenarios[i];
            }
        }
        if (bottleneck != nullptr) {
            std::cout << "\nwrote " << opts.getString("channel-csv")
                      << " (bottleneck link: " << bottleneck->channel
                      << " at "
                      << TablePrinter::num(
                             bottleneck->utilization * 100.0, 1)
                      << "% utilization, "
                      << bottleneck_sc->label() << ")\n";
        } else {
            std::cout << "\nwrote " << opts.getString("channel-csv")
                      << '\n';
        }
    }
    return 0;
}
