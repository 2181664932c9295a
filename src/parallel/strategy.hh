/**
 * @file
 * Parallel training strategies (Section II-C, Figure 3).
 *
 * Data-parallel: every worker trains the full model on 1/P of the batch;
 * the only synchronization is a per-weight-tensor all-reduce of dW during
 * backprop (overlappable with subsequent backward compute).
 *
 * Model-parallel (Krizhevsky-style, [51]): every worker owns 1/P of each
 * weighted layer's output units on the full batch. Following the
 * restricted-connectivity scheme of the original two-tower AlexNet,
 * channel shards flow privately through tower-internal convolution
 * chains; the feature maps are all-gathered only at channel-mixing
 * boundaries — pooling stages, fully-connected layers, classifier,
 * concatenations, and every recurrent timestep (the hidden state feeds
 * the full-width recurrent GEMM). Backward mirrors each gather with a
 * reduce-scatter of the output gradients. This is still far more
 * frequent synchronization than data parallelism (Figure 3b), especially
 * for RNNs, which sync twice per timestep.
 *
 * Pipeline-parallel (GPipe-style): the network is split into P
 * contiguous stages balanced by roofline cost; the minibatch is split
 * into M microbatches that stream through the stages. There are no
 * collectives at all — stages exchange boundary activations (forward)
 * and their gradients (backward) point-to-point on the fabric, and
 * each stage owns its slice of the weights, so weight updates are
 * local except for tied weight tensors spanning stages (unrolled RNN
 * cells), whose dW contributions reduce point-to-point to the owning
 * stage before its update. The communication volume is the boundary
 * cut plus those tied-dW exchanges, far smaller than either collective
 * mode, at the price of the fill/drain bubble and per-stage load
 * imbalance.
 */

#ifndef MCDLA_PARALLEL_STRATEGY_HH
#define MCDLA_PARALLEL_STRATEGY_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "collective/ring_collective.hh"
#include "device/compute_model.hh"
#include "dnn/network.hh"
#include "dnn/pipeline.hh"
#include "sim/text.hh"

namespace mcdla
{

class OffloadPlan;

/** Parallelization mode. */
enum class ParallelMode
{
    DataParallel,
    ModelParallel,
    Pipeline,
};

inline constexpr TokenRow<ParallelMode> kParallelModeRows[] = {
    {ParallelMode::DataParallel, "dp", "data", "data-parallel"},
    {ParallelMode::ModelParallel, "mp", "model", "model-parallel"},
    {ParallelMode::Pipeline, "pp", "pipeline", "pipeline-parallel"},
};

/** --mode (and trace mode=) vocabulary. */
inline constexpr TokenTable<ParallelMode> kParallelModes{
    "mode", kParallelModeRows};

/** Canonical CLI token of a mode (perfbench/ calls it by name). */
inline const char *
parallelModeToken(ParallelMode mode)
{
    return kParallelModes.token(mode);
}

/** Pipeline-mode knobs (ignored for dp/mp). */
struct PipelineConfig
{
    /** Stage count; 0 resolves to one stage per device. */
    int stages = 0;
    /** GPipe microbatches per iteration (>= 1). */
    int microbatches = 1;
    /** Roofline device used to balance the stage partition. */
    DeviceConfig device;
};

/** One synchronization requirement attached to a layer. */
struct SyncOp
{
    CollectiveKind kind = CollectiveKind::AllReduce;
    double bytes = 0.0;
    /**
     * Blocking syncs stall the issuing device's compute stream until
     * completion (model-parallel X/dX aggregation); non-blocking syncs
     * only gate the final weight update (data-parallel dW).
     */
    bool blocking = false;
};

/** Strategy facade consumed by the training session. */
class ParallelStrategy
{
  public:
    /**
     * @param net Workload network (drives sync-boundary analysis).
     * @param mode Data-, model-, or pipeline-parallel.
     * @param num_devices Worker count.
     * @param global_batch Total minibatch size (512 in the paper).
     * @param pipe Pipeline knobs (stage count, microbatches); ignored
     *        unless @p mode is Pipeline.
     */
    ParallelStrategy(const Network &net, ParallelMode mode,
                     int num_devices, std::int64_t global_batch,
                     PipelineConfig pipe = {});

    ParallelMode mode() const { return _mode; }
    int numDevices() const { return _numDevices; }
    std::int64_t globalBatch() const { return _globalBatch; }

    /**
     * Per-device batch size: the batch one layer execution processes
     * (a microbatch under pipeline parallelism).
     */
    std::int64_t perDeviceBatch() const;

    /** Compute/memory scaling of one layer on one device. */
    LayerScaling scaling(const Layer &layer) const;

    /** Synchronization after a layer's forward pass, if any. */
    std::optional<SyncOp> forwardSync(LayerId id) const;

    /** Synchronization after a layer's backward pass, if any. */
    std::optional<SyncOp> backwardSync(LayerId id) const;

    /**
     * Whether a model-parallel shard boundary follows this layer (its
     * output must be materialized full-width on every device).
     */
    bool isGatherBoundary(LayerId id) const;

    /** Resident weight bytes per device. */
    std::uint64_t weightBytesPerDevice(const Network &net) const;

    /**
     * Per-device bytes migrated per offloaded tensor: data-parallel
     * stashes 1/P of the batch; model-parallel stashes this device's
     * output/aux shard of the full batch; pipeline stashes one
     * microbatch (each of the M microbatch copies is its own page
     * group).
     */
    double offloadBytesPerDevice(const Layer &layer) const;

    /// @name Stage queries
    /// dp/mp are the one-stage, one-microbatch case: a single stage
    /// holds every layer in topological order and every device runs it.
    /// @{
    bool isPipeline() const { return _mode == ParallelMode::Pipeline; }

    /** Resolved stage count (1 for dp/mp). */
    int pipelineStages() const { return _partition.numStages(); }

    /** Microbatches per iteration (1 for dp/mp). */
    int microbatches() const { return _microbatches; }

    /** Samples per microbatch (globalBatch / microbatches). */
    std::int64_t microbatchSize() const;

    /** The stage partition (balanced by roofline cost under pp). */
    const PipelinePartition &partition() const { return _partition; }

    /** Stage owning @p id. */
    int stageOfLayer(LayerId id) const;

    /**
     * Stage that worker @p dev runs: stage 0 on every dp/mp device,
     * stage dev under pp, -1 for a pp device beyond the stage count
     * (idle).
     */
    int stageOfDevice(int dev) const;

    /**
     * Activation bytes crossing the cut between stage @p boundary and
     * stage boundary+1 for one microbatch: the distinct producer
     * outputs with a consumer on the far side. The backward gradient
     * transfer of the same boundary carries the same volume.
     */
    double boundaryBytesPerMicrobatch(int boundary) const;

    /**
     * Stash tensors paged by stage @p s's device: the stage's own
     * Offload-class layers plus the offloaded boundary inputs whose
     * activations the stage's backward pass re-reads (each becomes M
     * page groups, one per microbatch). Deterministic order.
     */
    std::vector<LayerId> stageStashLayers(int s,
                                          const OffloadPlan &plan) const;

    /**
     * Weight bytes resident on stage @p s's device: untied stage
     * weights plus one copy per tied weight group whose owning cell
     * lives on another stage (weightBytesPerDevice() for dp/mp).
     */
    std::uint64_t stageWeightBytes(int s) const;

    /**
     * Tied weight groups that span stages: owner layer -> sorted
     * distinct stages holding members (owner included). Groups
     * confined to one stage are omitted. Each spanning group requires
     * a cross-stage dW reduction to the owner before its weight
     * update.
     */
    std::map<LayerId, std::vector<int>> tieGroupStages() const;
    /// @}

  private:
    const Network &_net;
    ParallelMode _mode;
    int _numDevices;
    std::int64_t _globalBatch;
    int _microbatches = 1;
    PipelinePartition _partition;
    /** Cut bytes per sample for each of the P-1 stage boundaries. */
    std::vector<double> _boundaryBytesPerSample;
};

} // namespace mcdla

#endif // MCDLA_PARALLEL_STRATEGY_HH
