/**
 * @file
 * Scenario implementation: labels and the CLI resolution shared by
 * every driver.
 */

#include "core/scenario.hh"

#include <cmath>
#include <sstream>

#include "core/options.hh"
#include "device/device_config.hh"
#include "interconnect/topology.hh"
#include "memory/dimm.hh"
#include "sim/logging.hh"

namespace mcdla
{

double
pcieRawBandwidthForGen(std::int64_t gen)
{
    if (gen < 1 || gen > 6)
        fatal("unsupported --pcie-gen %lld (supported: 1-6)",
              static_cast<long long>(gen));
    // gen3 x16 = 16 GB/s per direction; each generation doubles.
    return 16.0 * kGB * std::ldexp(1.0, static_cast<int>(gen) - 3);
}

SystemConfig
Scenario::config() const
{
    SystemConfig cfg = base;
    cfg.design = design;
    return cfg;
}

std::string
Scenario::label() const
{
    std::ostringstream os;
    os << workload << '/' << kSystemDesigns.token(design) << '/'
       << kParallelModes.token(mode) << "/b" << globalBatch;
    if (mode == ParallelMode::Pipeline) {
        os << "/s"
           << (pipelineStages > 0 ? pipelineStages
                                  : base.fabric.numDevices)
           << "/mb" << microbatches;
    }
    // Interconnect overrides only mark scenarios off the design's own
    // wiring/algorithm; default labels stay stable for existing
    // tooling.
    if (base.fabric.topology != TopologyKind::Design)
        os << '/' << kTopologyKinds.token(base.fabric.topology);
    if (base.collectiveAlgorithm != CollectiveAlgorithm::Ring)
        os << '/'
           << kCollectiveAlgorithms.token(base.collectiveAlgorithm);
    // The event-queue backend cannot change results (both backends
    // order identically), but a non-default run is still labelled so
    // perf comparisons name what they measured.
    if (base.eventQueueBackend != EventQueueBackendKind::Heap)
        os << '/' << eventQueueBackendToken(base.eventQueueBackend);
    // Paging knobs only distinguish scenarios off the default policy;
    // default labels stay stable for existing tooling.
    if (base.paging.prefetch != PrefetchPolicyKind::StaticPlan) {
        os << '/' << kPrefetchPolicyKinds.token(base.paging.prefetch)
           << "/hbm"
           << (static_cast<double>(base.device.memCapacity)
               / static_cast<double>(kGiB))
           << 'g';
    }
    // Serving scenarios carry the replica/policy/SLO grid; training
    // labels stay untouched so existing tooling keys keep matching.
    if (serve) {
        os << "/serve/r" << replicas << '/'
           << kBatchPolicyKinds.token(batchPolicy) << '/'
           << kRouterKinds.token(router)
           << "/slo" << sloMs << "/rps" << requestRate;
        if (arrivals != ArrivalKind::Poisson)
            os << '/' << kArrivalKinds.token(arrivals);
    }
    // Stochastic runs carry their seed so the label reproduces them.
    if (seed != 0)
        os << "/seed" << seed;
    return os.str();
}

void
Scenario::addOptions(OptionParser &opts)
{
    opts.addString("design", "mc-b",
                   "system design: " + kSystemDesigns.list());
    opts.addString("workload", "ResNet",
                   "registered workload name, or 'all'");
    opts.addString("mode", "dp",
                   "parallelization: " + kParallelModes.list());
    opts.addInt("batch", kDefaultBatch, "global minibatch size");
    opts.addInt("pipeline-stages", 0,
                "pipeline stage count (--mode pp; 0 = one per device)");
    opts.addInt("microbatches", 4,
                "GPipe microbatches per iteration (--mode pp)");
    opts.addInt("devices", 8, "device-node count");
    opts.addString("topology", "design",
                   "interconnect wiring: " + kTopologyKinds.list());
    opts.addString("collective", "ring",
                   "collective algorithm: "
                       + kCollectiveAlgorithms.list());
    opts.addInt("board-devices", 8,
                "devices per board (hierarchical collectives)");
    opts.addInt("switch-radix", 18,
                "ports per switch plane / fat-tree radix (mc-x, "
                "--topology full-switch/fat-tree)");
    opts.addString("device-gen", "Volta",
                   "device generation (Kepler..TPUv2)");
    opts.addInt("pcie-gen", 3, "PCIe generation for the host link");
    opts.addDouble("link-gbps", 25.0,
                   "device-side link bandwidth, GB/s per direction");
    opts.addInt("dimm-gib", 128,
                "memory-node DIMM capacity (8/16/32/64/128 GiB)");
    opts.addDouble("socket-gbps", 0.0,
                   "host socket bandwidth cap, GB/s (0 = uncapped)");
    opts.addDouble("compression", 1.0, "cDMA compression ratio");
    opts.addDouble("compute-scale", 1.0,
                   "uniform scale on per-layer compute times "
                   "(what-if validation)");
    opts.addInt("iterations", 1, "training iterations to simulate");
    opts.addFlag("no-recompute", "disable the footnote-4 optimization");
    opts.addString("prefetch-policy", "static-plan",
                   "stash paging policy: " + kPrefetchPolicyKinds.list());
    opts.addInt("prefetch-lookahead", 8,
                "prefetch window in ops (static-plan and history)");
    opts.addString("eviction-policy", "last-fwd-use",
                   "paged eviction policy: "
                       + kEvictionPolicyKinds.list());
    opts.addDouble("hbm-capacity", 0.0,
                   "device HBM capacity in GiB (0 = device default)");
    opts.addInt("seed", 0,
                "RNG seed for stochastic components (0 = default)");
    opts.addString("event-queue", "heap",
                   "DES priority structure: "
                       + eventQueueBackendTokenList());
    opts.addFlag("serve",
                 "inference-serving mode: replicas + request stream "
                 "(--batch caps each coalesced batch)");
    opts.addInt("replicas", 2,
                "serving replicas, one device each (--serve)");
    opts.addInt("requests", 256,
                "synthetic request count (--serve)");
    opts.addDouble("request-rate", 200.0,
                   "mean request arrival rate, req/s (--serve)");
    opts.addDouble("slo-ms", 50.0,
                   "request tail-latency objective, ms (--serve)");
    opts.addString("batch-policy", "continuous",
                   "serving batch coalescing: " + kBatchPolicyKinds.list());
    opts.addDouble("batch-timeout-ms", 5.0,
                   "dynamic batch policy's queueing-wait bound, ms");
    opts.addString("arrivals", "poisson",
                   "synthetic arrival process: " + kArrivalKinds.list());
    opts.addString("router", "slo",
                   "request-to-replica routing: " + kRouterKinds.list());
}

Scenario
Scenario::fromOptions(const OptionParser &opts)
{
    Scenario sc;
    sc.design = kSystemDesigns.parse(opts.getString("design"));
    sc.workload = opts.getString("workload");
    sc.mode = kParallelModes.parse(opts.getString("mode"));
    sc.globalBatch = opts.getInt<std::int64_t>("batch", 1);
    sc.iterations = opts.getInt<int>("iterations", 1);
    sc.pipelineStages = opts.getInt<int>("pipeline-stages", 0);
    sc.microbatches = opts.getInt<int>("microbatches", 1);
    for (const char *knob : {"pipeline-stages", "microbatches"}) {
        if (sc.mode != ParallelMode::Pipeline && opts.wasSet(knob))
            fatal("--%s applies to --mode pp only (got --mode %s)", knob,
                  kParallelModes.token(sc.mode));
    }
    if (sc.mode == ParallelMode::Pipeline) {
        if (sc.globalBatch % sc.microbatches != 0)
            fatal("--batch %lld is not divisible by --microbatches %d",
                  static_cast<long long>(sc.globalBatch),
                  sc.microbatches);
    }

    sc.base.device = deviceGeneration(opts.getString("device-gen"));
    sc.base.device.linkBandwidth = opts.getDouble("link-gbps") * kGB;
    sc.base.fabric.numDevices = opts.getInt<int>("devices", 1);
    sc.base.fabric.topology =
        kTopologyKinds.parse(opts.getString("topology"));
    sc.base.collectiveAlgorithm =
        kCollectiveAlgorithms.parse(opts.getString("collective"));
    sc.base.collectiveBoardDevices = opts.getInt<int>("board-devices", 1);
    sc.base.fabric.switchRadix = opts.getInt<int>("switch-radix", 2);
    sc.base.fabric.pcieRawBandwidth =
        pcieRawBandwidthForGen(opts.getInt("pcie-gen"));
    sc.base.fabric.socketBandwidth =
        opts.getDouble("socket-gbps") * kGB;
    sc.base.memNode.dimm =
        dimmByCapacityGib(opts.getInt<unsigned>("dimm-gib", 0));
    sc.base.dmaCompressionRatio = opts.getDouble("compression");
    if (sc.base.dmaCompressionRatio <= 0.0)
        fatal("--compression must be positive (got %g)",
              sc.base.dmaCompressionRatio);
    sc.base.computeTimeScale = opts.getDouble("compute-scale");
    if (sc.base.computeTimeScale <= 0.0)
        fatal("--compute-scale must be positive (got %g)",
              sc.base.computeTimeScale);
    sc.base.recomputeCheapLayers = !opts.getFlag("no-recompute");

    sc.base.paging.prefetch =
        kPrefetchPolicyKinds.parse(opts.getString("prefetch-policy"));
    sc.base.paging.eviction =
        kEvictionPolicyKinds.parse(opts.getString("eviction-policy"));
    // A zero window silently degrades static-plan/history into a
    // never-prefetching no-op; reject it like the other capacity knobs.
    sc.base.paging.lookahead = static_cast<std::size_t>(
        opts.getInt<std::int64_t>("prefetch-lookahead", 1));
    const double hbm_gib = opts.getDouble("hbm-capacity");
    if (hbm_gib < 0.0)
        fatal("--hbm-capacity must be >= 0 GiB (got %g)", hbm_gib);
    if (hbm_gib > 0.0) {
        sc.base.device.memCapacity =
            static_cast<std::uint64_t>(hbm_gib * kGiB);
    }
    sc.seed = static_cast<std::uint64_t>(
        opts.getInt<std::int64_t>("seed", 0));
    sc.base.eventQueueBackend =
        parseEventQueueBackendKind(opts.getString("event-queue"));

    // Serving knobs are validated unconditionally, like the paging
    // knobs above: a bad value is a configuration error even when
    // --serve is off.
    sc.serve = opts.getFlag("serve");
    sc.replicas = opts.getInt<int>("replicas", 1);
    sc.requests = opts.getInt<int>("requests", 1);
    sc.requestRate = opts.getDouble("request-rate");
    if (sc.requestRate <= 0.0)
        fatal("--request-rate must be positive (got %g)",
              sc.requestRate);
    sc.sloMs = opts.getDouble("slo-ms");
    if (sc.sloMs <= 0.0)
        fatal("--slo-ms must be positive (got %g)", sc.sloMs);
    sc.batchPolicy =
        kBatchPolicyKinds.parse(opts.getString("batch-policy"));
    sc.batchTimeoutMs = opts.getDouble("batch-timeout-ms");
    if (sc.batchTimeoutMs < 0.0)
        fatal("--batch-timeout-ms must be >= 0 (got %g)",
              sc.batchTimeoutMs);
    sc.arrivals = kArrivalKinds.parse(opts.getString("arrivals"));
    sc.router = kRouterKinds.parse(opts.getString("router"));
    return sc;
}

} // namespace mcdla
