/**
 * @file
 * ParallelStrategy implementation.
 */

#include "parallel/strategy.hh"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "sim/logging.hh"
#include "vmem/offload_plan.hh"

namespace mcdla
{

ParallelStrategy::ParallelStrategy(const Network &net, ParallelMode mode,
                                   int num_devices,
                                   std::int64_t global_batch,
                                   PipelineConfig pipe)
    : _net(net), _mode(mode), _numDevices(num_devices),
      _globalBatch(global_batch)
{
    if (num_devices < 1)
        fatal("parallel strategy requires at least one device");

    if (mode == ParallelMode::Pipeline) {
        const int stages = pipe.stages > 0 ? pipe.stages : num_devices;
        if (stages > num_devices)
            fatal("%d pipeline stages exceed the %d devices",
                  stages, num_devices);
        if (static_cast<std::size_t>(stages) > net.size())
            fatal("%d pipeline stages exceed the %zu layers of %s",
                  stages, net.size(), net.name().c_str());
        if (pipe.microbatches < 1)
            fatal("pipeline parallelism requires at least one "
                  "microbatch (got %d)",
                  pipe.microbatches);
        if (global_batch < pipe.microbatches)
            fatal("global batch %lld smaller than the %d microbatches",
                  static_cast<long long>(global_batch),
                  pipe.microbatches);
        if (global_batch % pipe.microbatches != 0) {
            warn("global batch %lld not divisible by %d microbatches; "
                 "using floor division",
                 static_cast<long long>(global_batch),
                 pipe.microbatches);
        }
        _microbatches = pipe.microbatches;

        // Balance stages by the roofline forward+backward time of one
        // microbatch on the configured device.
        const ComputeModel model(pipe.device);
        LayerScaling scaling;
        scaling.batch = microbatchSize();
        std::vector<double> cost;
        cost.reserve(net.size());
        for (LayerId id = 0; id < static_cast<LayerId>(net.size());
             ++id) {
            const LayerTiming t =
                model.layerTiming(net.layer(id), scaling);
            cost.push_back(static_cast<double>(t.forward + t.backward));
        }
        _partition = PipelinePartition(net, cost, stages);

        // Cut bytes per sample for each boundary: distinct producers
        // on or before the boundary with a consumer beyond it.
        _boundaryBytesPerSample.assign(
            static_cast<std::size_t>(stages > 0 ? stages - 1 : 0), 0.0);
        for (LayerId id = 0; id < static_cast<LayerId>(net.size());
             ++id) {
            const int src = _partition.stageOf(id);
            int furthest = src;
            for (LayerId c : net.consumersOf(id))
                furthest = std::max(furthest, _partition.stageOf(c));
            for (int b = src; b < furthest; ++b)
                _boundaryBytesPerSample[static_cast<std::size_t>(b)] +=
                    static_cast<double>(
                        net.layer(id).outBytesPerSample());
        }
        return;
    }

    if (global_batch < num_devices)
        fatal("global batch %lld smaller than device count %d",
              static_cast<long long>(global_batch), num_devices);
    if (mode == ParallelMode::DataParallel
        && global_batch % num_devices != 0) {
        warn("global batch %lld not divisible by %d devices; using "
             "floor division",
             static_cast<long long>(global_batch), num_devices);
    }
}

std::int64_t
ParallelStrategy::perDeviceBatch() const
{
    if (_mode == ParallelMode::Pipeline)
        return microbatchSize();
    return _mode == ParallelMode::DataParallel
        ? _globalBatch / _numDevices
        : _globalBatch;
}

LayerScaling
ParallelStrategy::scaling(const Layer &layer) const
{
    LayerScaling s;
    s.batch = perDeviceBatch();
    if (_mode == ParallelMode::ModelParallel) {
        // Only weighted heavy layers shard their output units; cheap
        // layers replicate over the gathered full tensors.
        const bool sharded = layer.costClass() == CostClass::Heavy
            && layer.hasWeights();
        s.modelShards = sharded ? _numDevices : 1;
    }
    return s;
}

bool
ParallelStrategy::isGatherBoundary(LayerId id) const
{
    const Layer &layer = _net.layer(id);
    if (layer.costClass() != CostClass::Heavy || !layer.hasWeights())
        return false;
    if (layer.isRecurrent())
        return true; // h_t feeds the full-width recurrent GEMM

    // Walk forward through element-wise (channel-preserving) layers; if
    // every path ends in another sharded convolution, the channel shard
    // can stay private (Krizhevsky tower connectivity). Any channel-
    // mixing consumer — pooling into a classifier, concat, FC, loss, or
    // a recurrent cell — forces a full gather.
    std::vector<LayerId> work(_net.consumersOf(id));
    while (!work.empty()) {
        const LayerId c = work.back();
        work.pop_back();
        const Layer &consumer = _net.layer(c);
        switch (consumer.kind()) {
          case LayerKind::Conv2D:
            continue; // tower-internal; shard flows through
          case LayerKind::Activation:
          case LayerKind::BatchNorm:
          case LayerKind::Dropout:
          case LayerKind::LRN:
          case LayerKind::EltwiseAdd:
            // Channel-wise; keep walking.
            for (LayerId cc : _net.consumersOf(c))
                work.push_back(cc);
            continue;
          default:
            return true; // Pool / FC / Concat / loss / recurrent cell
        }
    }
    return false;
}

std::optional<SyncOp>
ParallelStrategy::forwardSync(LayerId id) const
{
    if (_mode != ParallelMode::ModelParallel || _numDevices < 2)
        return std::nullopt;
    if (!isGatherBoundary(id))
        return std::nullopt;
    const Layer &layer = _net.layer(id);
    SyncOp op;
    op.kind = CollectiveKind::AllGather;
    op.bytes = static_cast<double>(layer.outBytesPerSample())
        * static_cast<double>(_globalBatch);
    op.blocking = true;
    return op;
}

std::optional<SyncOp>
ParallelStrategy::backwardSync(LayerId id) const
{
    if (_numDevices < 2)
        return std::nullopt;
    // Pipeline stages own their weights outright and exchange boundary
    // tensors point-to-point; there are no collectives to launch.
    if (_mode == ParallelMode::Pipeline)
        return std::nullopt;
    const Layer &layer = _net.layer(id);
    if (_mode == ParallelMode::DataParallel) {
        // dW accumulation; tied recurrent cells reduce once via the
        // owning (untied) cell.
        if (!layer.hasWeights() || layer.weightsTied())
            return std::nullopt;
        SyncOp op;
        op.kind = CollectiveKind::AllReduce;
        op.bytes = static_cast<double>(layer.weightBytes());
        op.blocking = false;
        return op;
    }
    // Model parallel: every forward gather is mirrored by a backward
    // reduce-scatter — each device needs only the summed dY slice of
    // its own output shard.
    if (!isGatherBoundary(id))
        return std::nullopt;
    SyncOp op;
    op.kind = CollectiveKind::ReduceScatter;
    op.bytes = static_cast<double>(layer.outBytesPerSample())
        * static_cast<double>(_globalBatch);
    op.blocking = true;
    return op;
}

std::uint64_t
ParallelStrategy::weightBytesPerDevice(const Network &net) const
{
    const std::uint64_t total = net.totalWeightBytes();
    if (_mode == ParallelMode::DataParallel)
        return total;
    if (_mode == ParallelMode::Pipeline) {
        std::uint64_t worst = 0;
        for (int s = 0; s < pipelineStages(); ++s)
            worst = std::max(worst, stageWeightBytes(s));
        return worst;
    }
    return total / static_cast<std::uint64_t>(_numDevices);
}

double
ParallelStrategy::offloadBytesPerDevice(const Layer &layer) const
{
    const double batch = static_cast<double>(perDeviceBatch());
    const double out = static_cast<double>(layer.outBytesPerSample());
    const double aux = static_cast<double>(
        layer.auxStashBytesPerSample());
    if (_mode == ParallelMode::DataParallel
        || _mode == ParallelMode::Pipeline)
        return (out + aux) * batch; // One microbatch per group for pp.
    // Model parallel: each device stashes only its shard.
    const double shards =
        static_cast<double>(scaling(layer).modelShards);
    return (out + aux) * batch / shards;
}

int
ParallelStrategy::pipelineStages() const
{
    return isPipeline() ? _partition.numStages() : 1;
}

std::int64_t
ParallelStrategy::microbatchSize() const
{
    return _globalBatch / static_cast<std::int64_t>(_microbatches);
}

const PipelinePartition &
ParallelStrategy::partition() const
{
    if (!isPipeline())
        panic("stage partition requested for %s training",
              kParallelModes.name(_mode));
    return _partition;
}

int
ParallelStrategy::stageOfLayer(LayerId id) const
{
    return partition().stageOf(id);
}

double
ParallelStrategy::boundaryBytesPerMicrobatch(int boundary) const
{
    if (!isPipeline())
        panic("boundary bytes requested for %s training",
              kParallelModes.name(_mode));
    if (boundary < 0
        || static_cast<std::size_t>(boundary)
            >= _boundaryBytesPerSample.size())
        panic("pipeline boundary %d out of range [0, %zu)", boundary,
              _boundaryBytesPerSample.size());
    return _boundaryBytesPerSample[static_cast<std::size_t>(boundary)]
        * static_cast<double>(microbatchSize());
}

std::vector<LayerId>
ParallelStrategy::stageStashLayers(int s, const OffloadPlan &plan) const
{
    const PipelineStage &stage = partition().stage(s);
    std::vector<LayerId> out;
    std::set<LayerId> seen;
    auto add = [&](LayerId id) {
        if (plan.entry(id).action == TensorAction::Offload
            && seen.insert(id).second)
            out.push_back(id);
    };
    for (LayerId id : stage.layers)
        add(id);
    // Boundary inputs: offloaded activations produced upstream that
    // this stage's backward pass re-reads (the stage keeps the copy it
    // received during forward).
    for (LayerId id : stage.layers)
        for (LayerId p : _net.effectiveProducers(id))
            if (_partition.stageOf(p) < s)
                add(p);
    return out;
}

std::uint64_t
ParallelStrategy::stageWeightBytes(int s) const
{
    const PipelineStage &stage = partition().stage(s);
    std::uint64_t bytes = 0;
    // Tied recurrent cells share one weight tensor; a stage holding
    // any cell of a tie group needs one resident copy, counted via the
    // owner's weights when the owning cell lives elsewhere.
    std::set<LayerId> remote_owners;
    for (LayerId id : stage.layers) {
        const Layer &layer = _net.layer(id);
        if (!layer.hasWeights())
            continue;
        if (layer.weightsTied()) {
            const LayerId owner = layer.tiedOwner();
            if (owner == invalidLayerId)
                panic("tied layer %d of %s has no owner", id,
                      _net.name().c_str());
            if (_partition.stageOf(owner) != s)
                remote_owners.insert(owner);
        } else {
            bytes += layer.weightBytes();
        }
    }
    for (LayerId owner : remote_owners)
        bytes += _net.layer(owner).weightBytes();
    return bytes;
}

std::map<LayerId, std::vector<int>>
ParallelStrategy::tieGroupStages() const
{
    partition(); // isPipeline() guard
    std::map<LayerId, std::set<int>> stages;
    for (LayerId id = 0; id < static_cast<LayerId>(_net.size()); ++id) {
        const Layer &layer = _net.layer(id);
        if (!layer.hasWeights() || !layer.weightsTied())
            continue;
        const LayerId owner = layer.tiedOwner();
        auto &members = stages[owner];
        members.insert(_partition.stageOf(owner));
        members.insert(_partition.stageOf(id));
    }
    std::map<LayerId, std::vector<int>> spanning;
    for (const auto &[owner, members] : stages)
        if (members.size() > 1)
            spanning.emplace(owner, std::vector<int>(members.begin(),
                                                     members.end()));
    return spanning;
}

} // namespace mcdla
