/**
 * @file
 * Declarative description of one simulation run.
 *
 * A Scenario names everything the simulator needs — design point,
 * workload, parallelization, batch, and a SystemConfig carrying any
 * device/fabric/memory overrides — so drivers, benches, and sweeps can
 * be written as plain data. Every enum knob reads its CLI vocabulary
 * from one TokenTable (sim/text.hh) next to the enum: kSystemDesigns,
 * kParallelModes, kTopologyKinds and so on; no per-tool parsers exist.
 */

#ifndef MCDLA_CORE_SCENARIO_HH
#define MCDLA_CORE_SCENARIO_HH

#include <cstdint>
#include <string>

#include "parallel/strategy.hh"
#include "serving/batch_policy.hh"
#include "serving/request.hh"
#include "serving/router.hh"
#include "system/system_config.hh"
#include "workloads/registry.hh"

namespace mcdla
{

class OptionParser;

/**
 * Raw per-direction x16 PCIe bandwidth of @p gen (bytes/s).
 *
 * Generations 1-6 are accepted (gen3 = 16 GB/s, halving/doubling per
 * step); anything else is a fatal configuration error. This replaces
 * the former `1LL << (gen - 3)` expression whose negative shift was
 * undefined behavior for gen 1-2.
 */
double pcieRawBandwidthForGen(std::int64_t gen);

/** Full description of one simulation run. */
struct Scenario
{
    SystemDesign design = SystemDesign::McDlaB;
    std::string workload = "ResNet";
    ParallelMode mode = ParallelMode::DataParallel;
    std::int64_t globalBatch = kDefaultBatch;
    /** Pipeline stage count (--mode pp; 0 = one stage per device). */
    int pipelineStages = 0;
    /** GPipe microbatches per iteration (--mode pp only). */
    int microbatches = 4;
    /** Training iterations to simulate (metrics are the last one's). */
    int iterations = 1;
    /**
     * Seed of the run's single sim/random.hh RNG. Stochastic components
     * (the cluster's synthetic job-arrival process, randomized policies)
     * draw from one Random seeded here, so a scenario label fully
     * reproduces a run. 0 (the default) keeps labels of deterministic
     * runs unchanged.
     */
    std::uint64_t seed = 0;

    /// @name Inference-serving knobs (--serve runs; defaults off)
    /// @{
    /** Serving mode: replicas + request stream instead of training. */
    bool serve = false;
    /** Model replicas (one device each, devices 0..replicas-1). */
    int replicas = 2;
    /** Synthetic request count (ignored with a request trace). */
    int requests = 256;
    /** Mean request arrival rate, requests/sec. */
    double requestRate = 200.0;
    /** Tail-latency objective, milliseconds. */
    double sloMs = 50.0;
    /** Server-side coalescing policy; globalBatch caps each batch. */
    BatchPolicyKind batchPolicy = BatchPolicyKind::Continuous;
    /** Dynamic policy's queueing-wait bound, milliseconds. */
    double batchTimeoutMs = 5.0;
    /** Synthetic arrival process. */
    ArrivalKind arrivals = ArrivalKind::Poisson;
    /** Request-to-replica routing policy. */
    RouterKind router = RouterKind::SloAware;
    /// @}

    /** Base configuration; the design field is stamped by config(). */
    SystemConfig base;

    /** The effective SystemConfig (base with design applied). */
    SystemConfig config() const;

    /**
     * Compact identity, e.g. "ResNet/mc-b/dp/b512"; pipeline scenarios
     * append the stage/microbatch grid, e.g.
     * "ResNet/mc-b/pp/b512/s4/mb8"; interconnect overrides append the
     * topology/collective tokens (e.g. ".../torus2d/tree"); serving
     * scenarios append the replica/policy/SLO grid (e.g.
     * ".../serve/r4/continuous/slo/slo50/rps200"); seeded scenarios
     * append "/seed<N>".
     */
    std::string label() const;

    /**
     * Declare the shared simulation knobs (--design, --workload,
     * --mode, --batch, --devices, --topology, --collective,
     * --board-devices, --switch-radix, --device-gen, --pcie-gen,
     * --link-gbps,
     * --dimm-gib, --socket-gbps, --compression, --iterations,
     * --no-recompute, --prefetch-policy, --prefetch-lookahead,
     * --eviction-policy, --hbm-capacity, --pipeline-stages,
     * --microbatches, --seed, --event-queue, and the serving set:
     * --serve,
     * --replicas, --requests, --request-rate, --slo-ms,
     * --batch-policy, --batch-timeout-ms, --arrivals, --router) on
     * @p opts.
     */
    static void addOptions(OptionParser &opts);

    /**
     * Resolve a parsed option set (declared via addOptions) into a
     * scenario; fatal on invalid values. The workload name is taken
     * verbatim — drivers expand aggregates like "all" themselves.
     */
    static Scenario fromOptions(const OptionParser &opts);
};

} // namespace mcdla

#endif // MCDLA_CORE_SCENARIO_HH
