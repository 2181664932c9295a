/**
 * @file
 * Scenario implementation: the string round-trip tables and the CLI
 * resolution shared by every driver.
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

namespace
{

struct DesignToken
{
    SystemDesign design;
    const char *token;
};

/** The one table both directions of the round-trip read. */
constexpr DesignToken kDesignTokens[] = {
    {SystemDesign::DcDla, "dc"},
    {SystemDesign::HcDla, "hc"},
    {SystemDesign::McDlaS, "mc-s"},
    {SystemDesign::McDlaL, "mc-l"},
    {SystemDesign::McDlaB, "mc-b"},
    {SystemDesign::DcDlaOracle, "oracle"},
    {SystemDesign::McDlaSA, "mc-sa"},
    {SystemDesign::McDlaX, "mc-x"},
};

} // anonymous namespace

SystemDesign
parseSystemDesign(const std::string &name)
{
    for (const DesignToken &entry : kDesignTokens)
        if (name == entry.token || name == systemDesignName(entry.design))
            return entry.design;
    fatal("unknown design '%s' (%s)", name.c_str(),
          systemDesignTokenList().c_str());
}

const char *
systemDesignToken(SystemDesign design)
{
    for (const DesignToken &entry : kDesignTokens)
        if (entry.design == design)
            return entry.token;
    panic("design %d has no token", static_cast<int>(design));
}

const std::vector<SystemDesign> &
allSystemDesigns()
{
    static const std::vector<SystemDesign> designs = [] {
        std::vector<SystemDesign> all;
        for (const DesignToken &entry : kDesignTokens)
            all.push_back(entry.design);
        return all;
    }();
    return designs;
}

const std::string &
systemDesignTokenList()
{
    static const std::string list = [] {
        std::string tokens;
        for (const DesignToken &entry : kDesignTokens) {
            if (!tokens.empty())
                tokens += ", ";
            tokens += entry.token;
        }
        return tokens;
    }();
    return list;
}

ParallelMode
parseParallelMode(const std::string &name)
{
    if (name == "dp" || name == "data" || name == "data-parallel")
        return ParallelMode::DataParallel;
    if (name == "mp" || name == "model" || name == "model-parallel")
        return ParallelMode::ModelParallel;
    if (name == "pp" || name == "pipeline"
        || name == "pipeline-parallel")
        return ParallelMode::Pipeline;
    fatal("unknown mode '%s' (%s)", name.c_str(),
          parallelModeTokenList().c_str());
}

const char *
parallelModeToken(ParallelMode mode)
{
    switch (mode) {
      case ParallelMode::DataParallel: return "dp";
      case ParallelMode::ModelParallel: return "mp";
      case ParallelMode::Pipeline: return "pp";
    }
    panic("mode %d has no token", static_cast<int>(mode));
}

const std::vector<ParallelMode> &
allParallelModes()
{
    static const std::vector<ParallelMode> modes = {
        ParallelMode::DataParallel,
        ParallelMode::ModelParallel,
        ParallelMode::Pipeline,
    };
    return modes;
}

const std::string &
parallelModeTokenList()
{
    static const std::string list = [] {
        std::string tokens;
        for (ParallelMode mode : allParallelModes()) {
            if (!tokens.empty())
                tokens += ", ";
            tokens += parallelModeToken(mode);
        }
        return tokens;
    }();
    return list;
}

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
    os << workload << '/' << systemDesignToken(design) << '/'
       << parallelModeToken(mode) << "/b" << globalBatch;
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
        os << '/' << topologyKindToken(base.fabric.topology);
    if (base.collectiveAlgorithm != CollectiveAlgorithm::Ring)
        os << '/'
           << collectiveAlgorithmToken(base.collectiveAlgorithm);
    // The event-queue backend cannot change results (both backends
    // order identically), but a non-default run is still labelled so
    // perf comparisons name what they measured.
    if (base.eventQueueBackend != EventQueueBackendKind::Heap)
        os << '/' << eventQueueBackendToken(base.eventQueueBackend);
    // Paging knobs only distinguish scenarios off the default policy;
    // default labels stay stable for existing tooling.
    if (base.paging.prefetch != PrefetchPolicyKind::StaticPlan) {
        os << '/' << prefetchPolicyToken(base.paging.prefetch) << "/hbm"
           << (static_cast<double>(base.device.memCapacity)
               / static_cast<double>(kGiB))
           << 'g';
    }
    // Serving scenarios carry the replica/policy/SLO grid; training
    // labels stay untouched so existing tooling keys keep matching.
    if (serve) {
        os << "/serve/r" << replicas << '/'
           << batchPolicyToken(batchPolicy) << '/' << routerToken(router)
           << "/slo" << sloMs << "/rps" << requestRate;
        if (arrivals != ArrivalKind::Poisson)
            os << '/' << arrivalKindToken(arrivals);
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
                   "system design: " + systemDesignTokenList());
    opts.addString("workload", "ResNet",
                   "registered workload name, or 'all'");
    opts.addString("mode", "dp",
                   "parallelization: " + parallelModeTokenList());
    opts.addInt("batch", kDefaultBatch, "global minibatch size");
    opts.addInt("pipeline-stages", 0,
                "pipeline stage count (--mode pp; 0 = one per device)");
    opts.addInt("microbatches", 4,
                "GPipe microbatches per iteration (--mode pp)");
    opts.addInt("devices", 8, "device-node count");
    opts.addString("topology", "design",
                   "interconnect wiring: " + topologyKindTokenList());
    opts.addString("collective", "ring",
                   "collective algorithm: "
                       + collectiveAlgorithmTokenList());
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
                   "stash paging policy: " + prefetchPolicyTokenList());
    opts.addInt("prefetch-lookahead", 8,
                "prefetch window in ops (static-plan and history)");
    opts.addString("eviction-policy", "last-fwd-use",
                   "paged eviction policy: "
                       + evictionPolicyTokenList());
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
                   "serving batch coalescing: " + batchPolicyTokenList());
    opts.addDouble("batch-timeout-ms", 5.0,
                   "dynamic batch policy's queueing-wait bound, ms");
    opts.addString("arrivals", "poisson",
                   "synthetic arrival process: " + arrivalKindTokenList());
    opts.addString("router", "slo",
                   "request-to-replica routing: " + routerTokenList());
}

Scenario
Scenario::fromOptions(const OptionParser &opts)
{
    Scenario sc;
    sc.design = parseSystemDesign(opts.getString("design"));
    sc.workload = opts.getString("workload");
    sc.mode = parseParallelMode(opts.getString("mode"));
    sc.globalBatch = opts.getInt("batch");
    if (sc.globalBatch < 1)
        fatal("--batch must be positive (got %lld)",
              static_cast<long long>(sc.globalBatch));
    sc.iterations = static_cast<int>(opts.getInt("iterations"));
    if (sc.iterations < 1)
        fatal("--iterations must be positive (got %lld)",
              static_cast<long long>(opts.getInt("iterations")));
    sc.pipelineStages =
        static_cast<int>(opts.getInt("pipeline-stages"));
    if (sc.pipelineStages < 0)
        fatal("--pipeline-stages must be >= 0 (got %lld)",
              static_cast<long long>(opts.getInt("pipeline-stages")));
    sc.microbatches = static_cast<int>(opts.getInt("microbatches"));
    if (sc.microbatches < 1)
        fatal("--microbatches must be positive (got %lld)",
              static_cast<long long>(opts.getInt("microbatches")));
    if (sc.mode == ParallelMode::Pipeline) {
        if (sc.globalBatch % sc.microbatches != 0)
            fatal("--batch %lld is not divisible by --microbatches %d",
                  static_cast<long long>(sc.globalBatch),
                  sc.microbatches);
    }

    sc.base.device = deviceGeneration(opts.getString("device-gen"));
    sc.base.device.linkBandwidth = opts.getDouble("link-gbps") * kGB;
    sc.base.fabric.numDevices =
        static_cast<int>(opts.getInt("devices"));
    sc.base.fabric.topology =
        parseTopologyKind(opts.getString("topology"));
    sc.base.collectiveAlgorithm =
        parseCollectiveAlgorithm(opts.getString("collective"));
    sc.base.collectiveBoardDevices =
        static_cast<int>(opts.getInt("board-devices"));
    if (sc.base.collectiveBoardDevices < 1)
        fatal("--board-devices must be positive (got %lld)",
              static_cast<long long>(opts.getInt("board-devices")));
    sc.base.fabric.switchRadix =
        static_cast<int>(opts.getInt("switch-radix"));
    if (sc.base.fabric.switchRadix < 2)
        fatal("--switch-radix must be at least 2 (got %lld)",
              static_cast<long long>(opts.getInt("switch-radix")));
    sc.base.fabric.pcieRawBandwidth =
        pcieRawBandwidthForGen(opts.getInt("pcie-gen"));
    sc.base.fabric.socketBandwidth =
        opts.getDouble("socket-gbps") * kGB;
    sc.base.memNode.dimm = dimmByCapacityGib(
        static_cast<unsigned>(opts.getInt("dimm-gib")));
    sc.base.dmaCompressionRatio = opts.getDouble("compression");
    if (!(sc.base.dmaCompressionRatio > 0.0)
        || !std::isfinite(sc.base.dmaCompressionRatio))
        fatal("--compression must be positive (got %g)",
              sc.base.dmaCompressionRatio);
    sc.base.computeTimeScale = opts.getDouble("compute-scale");
    if (sc.base.computeTimeScale <= 0.0)
        fatal("--compute-scale must be positive (got %g)",
              sc.base.computeTimeScale);
    sc.base.recomputeCheapLayers = !opts.getFlag("no-recompute");

    sc.base.paging.prefetch =
        parsePrefetchPolicy(opts.getString("prefetch-policy"));
    sc.base.paging.eviction =
        parseEvictionPolicy(opts.getString("eviction-policy"));
    // A zero window silently degrades static-plan/history into a
    // never-prefetching no-op; reject it like the other capacity knobs.
    const std::int64_t lookahead = opts.getInt("prefetch-lookahead");
    if (lookahead < 1)
        fatal("--prefetch-lookahead must be positive (got %lld)",
              static_cast<long long>(lookahead));
    sc.base.paging.lookahead = static_cast<std::size_t>(lookahead);
    const double hbm_gib = opts.getDouble("hbm-capacity");
    if (hbm_gib < 0.0)
        fatal("--hbm-capacity must be >= 0 GiB (got %g)", hbm_gib);
    if (hbm_gib > 0.0) {
        sc.base.device.memCapacity =
            static_cast<std::uint64_t>(hbm_gib * kGiB);
    }
    const std::int64_t seed = opts.getInt("seed");
    if (seed < 0)
        fatal("--seed must be >= 0 (got %lld)",
              static_cast<long long>(seed));
    sc.seed = static_cast<std::uint64_t>(seed);
    sc.base.eventQueueBackend =
        parseEventQueueBackendKind(opts.getString("event-queue"));

    // Serving knobs are validated unconditionally, like the paging
    // knobs above: a bad value is a configuration error even when
    // --serve is off.
    sc.serve = opts.getFlag("serve");
    sc.replicas = static_cast<int>(opts.getInt("replicas"));
    if (sc.replicas < 1)
        fatal("--replicas must be positive (got %lld)",
              static_cast<long long>(opts.getInt("replicas")));
    sc.requests = static_cast<int>(opts.getInt("requests"));
    if (sc.requests < 1)
        fatal("--requests must be positive (got %lld)",
              static_cast<long long>(opts.getInt("requests")));
    sc.requestRate = opts.getDouble("request-rate");
    if (sc.requestRate <= 0.0)
        fatal("--request-rate must be positive (got %g)",
              sc.requestRate);
    sc.sloMs = opts.getDouble("slo-ms");
    if (sc.sloMs <= 0.0)
        fatal("--slo-ms must be positive (got %g)", sc.sloMs);
    sc.batchPolicy = parseBatchPolicy(opts.getString("batch-policy"));
    sc.batchTimeoutMs = opts.getDouble("batch-timeout-ms");
    if (sc.batchTimeoutMs < 0.0)
        fatal("--batch-timeout-ms must be >= 0 (got %g)",
              sc.batchTimeoutMs);
    sc.arrivals = parseArrivalKind(opts.getString("arrivals"));
    sc.router = parseRouter(opts.getString("router"));
    return sc;
}

} // namespace mcdla
