/**
 * @file
 * TrainingSession implementation.
 */

#include "system/training_session.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "interconnect/flow.hh"
#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"

namespace mcdla
{

TrainingSession::TrainingSession(System &system, const Network &net,
                                 ParallelMode mode,
                                 std::int64_t global_batch,
                                 int pipeline_stages, int microbatches,
                                 std::vector<int> device_set,
                                 bool forward_only)
    : _system(system), _net(net), _deviceSet(std::move(device_set)),
      _strategy(net, mode,
                _deviceSet.empty()
                    ? system.numDevices()
                    : static_cast<int>(_deviceSet.size()),
                global_batch,
                PipelineConfig{pipeline_stages, microbatches,
                               system.config().device}),
      _plan(net, system.config().offloadPolicy())
{
    _forwardOnly = forward_only;
    if (_forwardOnly && _strategy.isPipeline())
        fatal("forward-only sessions support dp/mp only (serving "
              "replicas do not pipeline)");
    const int total = _system.numDevices();
    if (_deviceSet.empty()) {
        for (int d = 0; d < total; ++d)
            _deviceSet.push_back(d);
    }
    std::set<int> distinct;
    for (int d : _deviceSet) {
        if (d < 0 || d >= total)
            fatal("training session device %d outside the system's %d "
                  "devices", d, total);
        if (!distinct.insert(d).second)
            fatal("training session device %d listed twice", d);
    }
    _ownsAllDevices = static_cast<int>(_deviceSet.size()) == total;

    // Subset sessions ring their collectives over just the owned
    // devices; the restricted rings still walk the full physical loop.
    if (!_ownsAllDevices && !_strategy.isPipeline()
        && deviceCount() > 1) {
        for (const RingPath &ring : _system.fabric().rings()) {
            RingPath sub = restrictRingToDevices(ring, _deviceSet);
            if (sub.stageCount() >= 2)
                _jobRings.push_back(std::move(sub));
        }
        if (_jobRings.empty())
            fatal("no fabric ring connects the session's %d devices; "
                  "collectives have no path", deviceCount());
        for (const RingPath &ring : _jobRings)
            _jobRingPtrs.push_back(&ring);
    }

    buildSchedule();
}

const std::vector<TrainingSession::OpSpec> &
TrainingSession::program(int dev) const
{
    if (_strategy.isPipeline())
        return _stagePrograms.at(static_cast<std::size_t>(dev));
    return _ops;
}

LayerId
TrainingSession::groupId(LayerId layer, int microbatch) const
{
    return layer * static_cast<LayerId>(_strategy.microbatches())
        + static_cast<LayerId>(microbatch);
}

void
TrainingSession::buildSchedule()
{
    const ComputeModel &model =
        _system.device(sysDev(0)).computeModel();
    const auto layer_count = static_cast<LayerId>(_net.size());

    _timings.clear();
    for (LayerId id = 0; id < layer_count; ++id)
        _timings.push_back(model.layerTiming(
            _net.layer(id), _strategy.scaling(_net.layer(id))));

    // What-if validation knob: uniformly rescale compute durations
    // (SystemConfig::computeTimeScale). Guarded so the default 1.0
    // leaves every tick byte-identical to the unscaled schedule.
    const double scale = _system.config().computeTimeScale;
    if (scale != 1.0) {
        if (scale <= 0.0)
            fatal("computeTimeScale must be positive (got %g)", scale);
        for (LayerTiming &timing : _timings) {
            timing.forward = static_cast<Tick>(
                std::llround(static_cast<double>(timing.forward)
                             * scale));
            timing.backward = static_cast<Tick>(
                std::llround(static_cast<double>(timing.backward)
                             * scale));
            timing.weightUpdate = static_cast<Tick>(std::llround(
                static_cast<double>(timing.weightUpdate) * scale));
        }
    }

    if (_strategy.isPipeline()) {
        buildPipelineSchedule();
        return;
    }

    // Map each offloaded tensor to the op after which its last forward
    // use completes (the static plan's writeback trigger).
    std::map<LayerId, std::vector<LayerId>> offload_after; // trigger->ps
    for (LayerId id = 0; id < layer_count; ++id) {
        if (_plan.entry(id).action != TensorAction::Offload)
            continue;
        LayerId trigger = id;
        for (LayerId c : _net.effectiveConsumers(id))
            trigger = std::max(trigger, c);
        offload_after[trigger].push_back(id);
    }

    _ops.clear();
    _pagingSchedule.clear();

    // Forward pass.
    for (LayerId id : _net.topoOrder()) {
        OpSpec op;
        op.kind = OpSpec::Kind::Fwd;
        op.layer = id;
        op.duration = _timings[static_cast<std::size_t>(id)].forward;
        op.syncAfter = _strategy.forwardSync(id);

        PageAccess access;
        if (_plan.entry(id).action == TensorAction::Offload)
            access.produces.push_back(id);
        if (auto it = offload_after.find(id); it != offload_after.end())
            access.planWritebacks = it->second;

        _ops.push_back(std::move(op));
        _pagingSchedule.push_back(std::move(access));
    }

    // Inference stops here: no backward pass, no weight updates, no dW
    // all-reduce. The forward ops above keep their produces/writeback
    // actions, so a serving replica still drives real paging DMA; its
    // stashes are never read back — the session is torn down per batch.
    if (_forwardOnly)
        return;

    // Backward pass in reverse topological order.
    const auto &topo = _net.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const LayerId id = *it;
        const LayerTiming &t = _timings[static_cast<std::size_t>(id)];

        OpSpec op;
        op.kind = OpSpec::Kind::Bwd;
        op.layer = id;
        op.duration = t.backward;
        // Recomputed cheap layers re-run their forward during backprop.
        if (_plan.entry(id).action == TensorAction::Recompute)
            op.duration += t.forward;
        op.syncAfter = _strategy.backwardSync(id);

        // Backward consumes the stashes of this layer and its effective
        // producers; anything offloaded must be paged in first.
        PageAccess access;
        auto need = [&](LayerId p) {
            if (_plan.entry(p).action == TensorAction::Offload)
                access.reads.push_back(p);
        };
        need(id);
        for (LayerId p : _net.effectiveProducers(id))
            need(p);

        if (op.duration == 0 && !op.syncAfter && access.reads.empty())
            continue; // structural no-op
        _ops.push_back(std::move(op));
        _pagingSchedule.push_back(std::move(access));
    }

    // Weight updates (gated by dW all-reduce under data parallelism).
    const bool dp_sync =
        _strategy.mode() == ParallelMode::DataParallel
        && _strategy.numDevices() > 1;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const LayerId id = *it;
        const Layer &layer = _net.layer(id);
        if (!layer.hasWeights() || layer.weightsTied())
            continue;
        OpSpec op;
        op.kind = OpSpec::Kind::Wup;
        op.layer = id;
        op.duration =
            _timings[static_cast<std::size_t>(id)].weightUpdate;
        op.needsDwLatch = dp_sync;
        _ops.push_back(std::move(op));
        _pagingSchedule.emplace_back();
    }

    // Each stash dies at its last reader; the pager frees its frames
    // when that op retires.
    std::map<LayerId, std::size_t> last_reader;
    for (std::size_t i = 0; i < _pagingSchedule.size(); ++i)
        for (LayerId layer : _pagingSchedule[i].reads)
            last_reader[layer] = i;
    for (const auto &[layer, op_index] : last_reader)
        _pagingSchedule[op_index].releases.push_back(layer);
}

void
TrainingSession::buildPipelineSchedule()
{
    const PipelinePartition &part = _strategy.partition();
    const int P = part.numStages();
    const int M = _strategy.microbatches();
    const int n = deviceCount();

    if (n > P)
        warn("%s: %d pipeline stages on %d devices; devices %d..%d "
             "idle",
             _net.name().c_str(), P, n, P, n - 1);

    _stagePrograms.assign(static_cast<std::size_t>(n), {});
    _stageSchedules.assign(static_cast<std::size_t>(n), {});
    _stageTensors.assign(static_cast<std::size_t>(n), {});
    _p2pRoutes.clear();
    _p2pBytesTotal = 0.0;

    // Boundary-transfer tokens: forward boundary b carries wave m with
    // token b*M + m; backward transfers follow after (P-1)*M. Tied-dW
    // reduction tokens are appended after the boundary ones.
    auto fwd_token = [M](int boundary, int m) {
        return boundary * M + m;
    };
    auto bwd_token = [M, P](int boundary, int m) {
        return (P - 1) * M + boundary * M + m;
    };
    int next_token = 2 * (P - 1) * M;

    // Tied weight tensors spanning stages: every member stage reduces
    // its dW contribution to the owning stage before the owner's
    // weight update. (owner, sender stage) -> token.
    const std::map<LayerId, std::vector<int>> tie_groups =
        _strategy.tieGroupStages();
    std::map<std::pair<LayerId, int>, int> tie_tokens;
    for (const auto &[owner, member_stages] : tie_groups) {
        const int owner_stage = _strategy.stageOfLayer(owner);
        for (int member : member_stages)
            if (member != owner_stage)
                tie_tokens[{owner, member}] = next_token++;
    }
    _p2pTokenCount = next_token;

    auto ensure_route = [&](int src, int dst) {
        if (_p2pRoutes.count(src * n + dst))
            return;
        Route route =
            _system.fabric().deviceRoute(sysDev(src), sysDev(dst));
        if (!route.valid())
            fatal("%s: no device-to-device path from %d to %d for "
                  "pipeline transfers",
                  kSystemDesigns.name(_system.config().design),
                  sysDev(src), sysDev(dst));
        _p2pRoutes.emplace(src * n + dst,
                           std::vector<Route>{std::move(route)});
    };
    // Adjacent-stage boundary routes plus tied-dW reduction routes.
    for (int b = 0; b + 1 < P; ++b) {
        ensure_route(b, b + 1);
        ensure_route(b + 1, b);
    }
    for (const auto &[key, token] : tie_tokens) {
        (void)token;
        ensure_route(key.second, _strategy.stageOfLayer(key.first));
    }

    for (int s = 0; s < P; ++s) {
        auto &ops = _stagePrograms[static_cast<std::size_t>(s)];
        auto &sched = _stageSchedules[static_cast<std::size_t>(s)];
        const std::vector<LayerId> &stage_layers = part.stage(s).layers;

        std::vector<LayerId> tensors =
            _strategy.stageStashLayers(s, _plan);
        _stageTensors[static_cast<std::size_t>(s)] = tensors;
        const std::set<LayerId> tensor_set(tensors.begin(),
                                           tensors.end());
        std::map<LayerId, std::size_t> wave_index;
        for (std::size_t i = 0; i < stage_layers.size(); ++i)
            wave_index[stage_layers[i]] = i;

        // Within one forward wave, each stashed tensor's writeback
        // triggers at its last local forward use.
        std::map<LayerId, std::size_t> trigger_offset;
        for (LayerId t : tensors) {
            std::size_t off = 0;
            if (auto it = wave_index.find(t); it != wave_index.end())
                off = it->second;
            for (LayerId c : _net.effectiveConsumers(t))
                if (auto it = wave_index.find(c);
                    it != wave_index.end())
                    off = std::max(off, it->second);
            trigger_offset[t] = off;
        }
        // Boundary inputs become resident when the wave's first op can
        // run (their activations arrived with the recv).
        std::vector<LayerId> boundary_inputs;
        for (LayerId t : tensors)
            if (wave_index.count(t) == 0)
                boundary_inputs.push_back(t);

        // Forward waves, one per microbatch.
        for (int m = 0; m < M; ++m) {
            const std::size_t wave_start = ops.size();
            for (LayerId id : stage_layers) {
                OpSpec op;
                op.kind = OpSpec::Kind::Fwd;
                op.layer = id;
                op.duration =
                    _timings[static_cast<std::size_t>(id)].forward;

                PageAccess access;
                if (tensor_set.count(id))
                    access.produces.push_back(groupId(id, m));
                ops.push_back(std::move(op));
                sched.push_back(std::move(access));
            }
            for (LayerId p : boundary_inputs)
                sched[wave_start].produces.push_back(groupId(p, m));
            for (const auto &[tensor, off] : trigger_offset)
                sched[wave_start + off].planWritebacks.push_back(
                    groupId(tensor, m));
            if (s > 0)
                ops[wave_start].recvTokens.push_back(
                    fwd_token(s - 1, m));
            if (s + 1 < P) {
                const double bytes =
                    _strategy.boundaryBytesPerMicrobatch(s);
                ops.back().sends.push_back(
                    P2pSend{fwd_token(s, m), s + 1, bytes});
                _p2pBytesTotal += bytes;
            }
        }

        // Backward waves in reverse microbatch order (GPipe drains the
        // last-filled microbatch first).
        for (int m = M - 1; m >= 0; --m) {
            const std::size_t wave_start = ops.size();
            for (auto it = stage_layers.rbegin();
                 it != stage_layers.rend(); ++it) {
                const LayerId id = *it;
                const LayerTiming &t =
                    _timings[static_cast<std::size_t>(id)];

                OpSpec op;
                op.kind = OpSpec::Kind::Bwd;
                op.layer = id;
                op.duration = t.backward;
                if (_plan.entry(id).action == TensorAction::Recompute)
                    op.duration += t.forward;

                PageAccess access;
                auto need = [&](LayerId p) {
                    if (tensor_set.count(p))
                        access.reads.push_back(groupId(p, m));
                };
                need(id);
                for (LayerId p : _net.effectiveProducers(id))
                    need(p);

                if (op.duration == 0 && access.reads.empty())
                    continue; // structural no-op
                ops.push_back(std::move(op));
                sched.push_back(std::move(access));
            }
            if (ops.size() == wave_start) {
                // All-structural stage: keep a zero-cost op so the
                // boundary tokens have a carrier.
                OpSpec op;
                op.kind = OpSpec::Kind::Bwd;
                op.layer = stage_layers.front();
                ops.push_back(std::move(op));
                sched.emplace_back();
            }
            if (s + 1 < P)
                ops[wave_start].recvTokens.push_back(bwd_token(s, m));
            if (s > 0) {
                const double bytes =
                    _strategy.boundaryBytesPerMicrobatch(s - 1);
                ops.back().sends.push_back(
                    P2pSend{bwd_token(s - 1, m), s - 1, bytes});
                _p2pBytesTotal += bytes;
            }
        }

        // Tied-dW reduction: once this stage's final backward wave
        // retires, its accumulated contributions to remotely-owned tied
        // weight tensors travel to the owning stage.
        for (const auto &[owner, member_stages] : tie_groups) {
            (void)member_stages;
            auto it = tie_tokens.find({owner, s});
            if (it == tie_tokens.end())
                continue;
            const double bytes = static_cast<double>(
                _net.layer(owner).weightBytes());
            ops.back().sends.push_back(P2pSend{
                it->second, _strategy.stageOfLayer(owner), bytes});
            _p2pBytesTotal += bytes;
        }

        // Stage-local weight updates. No dW collective to gate on, but
        // the owner of a stage-spanning tied weight tensor waits for
        // the other member stages' dW contributions.
        const auto &topo = _net.topoOrder();
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
            const LayerId id = *it;
            if (part.stageOf(id) != s)
                continue;
            const Layer &layer = _net.layer(id);
            if (!layer.hasWeights() || layer.weightsTied())
                continue;
            OpSpec op;
            op.kind = OpSpec::Kind::Wup;
            op.layer = id;
            op.duration =
                _timings[static_cast<std::size_t>(id)].weightUpdate;
            if (auto group = tie_groups.find(id);
                group != tie_groups.end()) {
                for (int member : group->second)
                    if (member != s)
                        op.recvTokens.push_back(
                            tie_tokens.at({id, member}));
            }
            ops.push_back(std::move(op));
            sched.emplace_back();
        }

        // Each page group dies at its last reader.
        std::map<LayerId, std::size_t> last_reader;
        for (std::size_t i = 0; i < sched.size(); ++i)
            for (LayerId group : sched[i].reads)
                last_reader[group] = i;
        for (const auto &[group, op_index] : last_reader)
            sched[op_index].releases.push_back(group);
    }
}

std::uint64_t
TrainingSession::stageFootprintBytes(int s) const
{
    const PipelineStage &stage = _strategy.partition().stage(s);
    const auto mb =
        static_cast<std::uint64_t>(_strategy.microbatchSize());
    const auto waves =
        static_cast<std::uint64_t>(_strategy.microbatches());
    std::uint64_t resident = 0;
    std::uint64_t largest = 0;
    std::set<LayerId> kept_inputs;
    for (LayerId id : stage.layers) {
        const Layer &layer = _net.layer(id);
        const TensorPlan &entry = _plan.entry(id);
        // Every microbatch's kept stash is live across the fwd->bwd
        // turn of the pipeline.
        if (entry.action == TensorAction::KeepLocal) {
            resident += (entry.outBytesPerSample
                         + entry.auxBytesPerSample)
                * mb * waves;
        }
        const std::uint64_t working =
            (layer.inBytesPerSample() + layer.outBytesPerSample()
             + layer.auxStashBytesPerSample())
            * mb;
        largest = std::max(largest, working);
        // Received boundary activations the plan does not page stay
        // resident until their backward wave.
        for (LayerId p : _net.effectiveProducers(id)) {
            if (_strategy.stageOfLayer(p) < s
                && _plan.entry(p).action != TensorAction::Offload)
                kept_inputs.insert(p);
        }
    }
    for (LayerId p : kept_inputs)
        resident += _net.layer(p).outBytesPerSample() * mb * waves;
    return _strategy.stageWeightBytes(s) + resident + largest;
}

std::uint64_t
TrainingSession::footprintBytesPerDevice() const
{
    if (_strategy.isPipeline()) {
        std::uint64_t worst = 0;
        for (int s = 0; s < _strategy.pipelineStages(); ++s)
            worst = std::max(worst, stageFootprintBytes(s));
        return worst;
    }

    const std::int64_t batch = _strategy.perDeviceBatch();
    std::uint64_t resident = 0;
    std::uint64_t largest = 0;
    for (LayerId id = 0; id < static_cast<LayerId>(_net.size()); ++id) {
        const Layer &layer = _net.layer(id);
        const TensorPlan &entry = _plan.entry(id);
        const auto shards = static_cast<std::uint64_t>(
            _strategy.scaling(layer).modelShards);
        if (entry.action == TensorAction::KeepLocal) {
            resident += (entry.outBytesPerSample
                         + entry.auxBytesPerSample / shards)
                * static_cast<std::uint64_t>(batch);
        }
        // Working set of the layer while executing: full input plus the
        // shard of output/aux this device produces.
        const std::uint64_t working =
            (layer.inBytesPerSample()
             + (layer.outBytesPerSample()
                + layer.auxStashBytesPerSample()) / shards)
            * static_cast<std::uint64_t>(batch);
        largest = std::max(largest, working);
    }
    // Weights + resident stash + the largest live working set (vDNN
    // keeps only the executing layer's buffers resident).
    return _strategy.weightBytesPerDevice(_net) + resident + largest;
}

void
TrainingSession::releaseBuffers()
{
    if (!_allocated)
        return;
    for (int d = 0; d < deviceCount(); ++d) {
        VmemRuntime &rt = _system.runtime(sysDev(d));
        for (const auto &[group, ptr] :
             _remotePtrs[static_cast<std::size_t>(d)])
            rt.freeRemote(ptr);
        if (d < static_cast<int>(_localPlacements.size()))
            _system.addressSpace(sysDev(d)).free(
                _localPlacements[static_cast<std::size_t>(d)]);
    }
    _remotePtrs.clear();
    _localPlacements.clear();
    _pagers.clear();
    _allocated = false;
}

void
TrainingSession::allocateBuffers()
{
    if (_allocated)
        return;
    _allocated = true;

    const int n = deviceCount();
    _remotePtrs.assign(static_cast<std::size_t>(n), {});
    _localPlacements.clear();

    if (_strategy.isPipeline()) {
        const int P = _strategy.pipelineStages();
        const int M = _strategy.microbatches();
        for (int d = 0; d < n; ++d) {
            DeviceAddressSpace &space = _system.addressSpace(sysDev(d));
            const std::uint64_t footprint =
                d < P ? stageFootprintBytes(d) : 0;
            if (!space.fitsLocal(footprint)) {
                fatal("%s: stage-%d footprint %s exceeds devicelocal "
                      "capacity %s for %s (batch %lld, %s, %d stages x "
                      "%d microbatches) — the memory capacity wall; "
                      "raise --microbatches or --pipeline-stages",
                      kSystemDesigns.name(_system.config().design), d,
                      formatBytes(
                          static_cast<double>(footprint)).c_str(),
                      formatBytes(static_cast<double>(
                          space.localCapacity())).c_str(),
                      _net.name().c_str(),
                      static_cast<long long>(_strategy.globalBatch()),
                      kParallelModes.name(_strategy.mode()), P, M);
            }
            _localPlacements.push_back(space.mallocLocal(footprint));
            if (d >= P)
                continue;
            for (LayerId layer :
                 _stageTensors[static_cast<std::size_t>(d)]) {
                const double bytes = _strategy.offloadBytesPerDevice(
                    _net.layer(layer));
                for (int m = 0; m < M; ++m) {
                    _remotePtrs[static_cast<std::size_t>(d)]
                               [groupId(layer, m)] =
                        _system.runtime(sysDev(d)).mallocRemote(
                            static_cast<std::uint64_t>(bytes) + 1);
                }
            }
        }
        createPagers();
        return;
    }

    for (int d = 0; d < n; ++d) {
        DeviceAddressSpace &space = _system.addressSpace(sysDev(d));
        const std::uint64_t footprint = footprintBytesPerDevice();
        if (!space.fitsLocal(footprint)) {
            fatal("%s: per-device footprint %s exceeds devicelocal "
                  "capacity %s for %s (batch %lld, %s) — the memory "
                  "capacity wall; reduce the batch size or enable a "
                  "larger backing store",
                  kSystemDesigns.name(_system.config().design),
                  formatBytes(static_cast<double>(footprint)).c_str(),
                  formatBytes(static_cast<double>(
                      space.localCapacity())).c_str(),
                  _net.name().c_str(),
                  static_cast<long long>(_strategy.globalBatch()),
                  kParallelModes.name(_strategy.mode()));
        }
        _localPlacements.push_back(space.mallocLocal(footprint));

        // Table I: allocate deviceremote backing buffers for every
        // offloaded tensor through the runtime API.
        for (LayerId id = 0; id < static_cast<LayerId>(_net.size());
             ++id) {
            if (_plan.entry(id).action != TensorAction::Offload)
                continue;
            const double bytes =
                _strategy.offloadBytesPerDevice(_net.layer(id));
            _remotePtrs[static_cast<std::size_t>(d)][id] =
                _system.runtime(sysDev(d)).mallocRemote(
                    static_cast<std::uint64_t>(bytes) + 1);
        }
    }

    createPagers();
}

void
TrainingSession::createPagers()
{
    const int n = deviceCount();
    const SystemConfig &cfg = _system.config();
    const auto layer_count = static_cast<std::size_t>(_net.size());
    const bool pipeline = _strategy.isPipeline();
    const auto waves = pipeline
        ? static_cast<std::size_t>(_strategy.microbatches())
        : std::size_t{1};
    const std::size_t group_count = layer_count * waves;

    std::vector<double> wire_bytes(group_count, 0.0);
    std::vector<std::uint64_t> frame_bytes(group_count, 0);
    std::vector<LayerId> group_layer;
    if (pipeline) {
        group_layer.resize(group_count);
        for (std::size_t g = 0; g < group_count; ++g)
            group_layer[g] = static_cast<LayerId>(g / waves);
    }
    for (LayerId id = 0; id < static_cast<LayerId>(_net.size()); ++id) {
        if (_plan.entry(id).action != TensorAction::Offload)
            continue;
        const double bytes =
            _strategy.offloadBytesPerDevice(_net.layer(id));
        for (std::size_t m = 0; m < waves; ++m) {
            const auto g = static_cast<std::size_t>(id) * waves + m;
            wire_bytes[g] = bytes / cfg.dmaCompressionRatio;
            frame_bytes[g] = static_cast<std::uint64_t>(bytes) + 1;
        }
    }

    _pagers.clear();
    for (int d = 0; d < n; ++d) {
        DevicePager::Wiring wiring;
        wiring.runtime = &_system.runtime(sysDev(d));
        wiring.remotePtrs = &_remotePtrs[static_cast<std::size_t>(d)];
        wiring.net = &_net;
        wiring.schedule = pipeline
            ? &_stageSchedules[static_cast<std::size_t>(d)]
            : &_pagingSchedule;
        wiring.wireBytes = wire_bytes;
        wiring.frameBytes = frame_bytes;
        wiring.groupLayer = group_layer;
        // HBM left after weights, keep-local stash, and working
        // buffers is the stash frame budget.
        const DeviceAddressSpace &space =
            _system.addressSpace(sysDev(d));
        wiring.frameCapacity =
            space.localCapacity() - space.localUsed();
        wiring.config = cfg.paging;
        // SPMD modes track device 0's DMA (every device is the same);
        // pipeline unions all stages so vmemSec reflects the machine.
        wiring.tracker =
            (pipeline || d == 0) ? &_vmemTracker : nullptr;
        _pagers.push_back(std::make_unique<DevicePager>(
            "dev" + std::to_string(sysDev(d)) + ".pager",
            std::move(wiring)));
    }
}

DevicePager &
TrainingSession::pager(int dev)
{
    if (_pagers.empty())
        allocateBuffers();
    return *_pagers.at(static_cast<std::size_t>(dev));
}

std::uint64_t
TrainingSession::hbmResidentBytes() const
{
    std::uint64_t total = 0;
    for (const auto &pager : _pagers)
        total += pager->pageTable().usedBytes();
    return total;
}

void
TrainingSession::tryIssue(int dev)
{
    DeviceCtx &ctx = _devs[static_cast<std::size_t>(dev)];
    const std::vector<OpSpec> &ops = program(dev);
    if (ctx.running || ctx.nextOp >= ops.size())
        return;
    const OpSpec &op = ops[ctx.nextOp];

    Latch *wait = nullptr;
    int cat = 0;
    if (ctx.blockingGate && !ctx.blockingGate->done()) {
        wait = ctx.blockingGate;
        cat = 1;
    }
    if (!wait) {
        for (int token : op.recvTokens) {
            Latch *recv = _p2pLatches.at(
                static_cast<std::size_t>(token)).get();
            if (!recv->done()) {
                wait = recv;
                cat = 1;
                break;
            }
        }
    }
    if (!wait) {
        if (Latch *gate =
                _pagers[static_cast<std::size_t>(dev)]->demand(
                    ctx.nextOp)) {
            wait = gate;
            cat = 2;
        }
    }
    if (!wait && op.needsDwLatch) {
        auto it = _dwSync.find(op.layer);
        if (it == _dwSync.end())
            panic("weight update of layer %d before its dW sync point",
                  op.layer);
        if (!it->second->latch().done()) {
            wait = &it->second->latch();
            cat = 1;
        }
    }
    if (wait) {
        ctx.waitedCat = cat;
        wait->whenDone([this, dev] { tryIssue(dev); });
        return;
    }

    // Issue on the serial compute stream.
    ctx.running = true;
    ctx.blockingGate = nullptr;
    const Tick now = _system.eventQueue().now();
    if (ctx.waitedCat == 2) {
        _pagers[static_cast<std::size_t>(dev)]->noteStall(
            now - ctx.readyAt);
    }
    const auto udev = static_cast<std::size_t>(dev);
    if (ctx.waitedCat == 1)
        _stallSync[udev] += now - ctx.readyAt;
    else if (ctx.waitedCat == 2)
        _stallVmem[udev] += now - ctx.readyAt;
    ctx.waitedCat = 0;
    _system.device(sysDev(dev)).occupyCompute(op.duration);
    CausalScope causal_scope(
        _system.eventQueue().causalRecorder(), WaitKind::Compute,
        "dev" + std::to_string(sysDev(dev)));
    _system.eventQueue().scheduleAfter(
        op.duration, [this, dev] { completeOp(dev); },
        "op_complete");
}

void
TrainingSession::issueP2p(int src, const P2pSend &send)
{
    Latch *latch =
        _p2pLatches.at(static_cast<std::size_t>(send.token)).get();
    if (send.bytes <= 0.0) {
        latch->complete();
        return;
    }
    const std::vector<Route> &routes =
        _p2pRoutes.at(src * deviceCount() + send.dst);
    const Tick launched = _system.eventQueue().now();
    _syncTracker.begin(launched);
    const int dst = send.dst;
    CausalScope causal_scope(_system.eventQueue().causalRecorder(),
                             WaitKind::Control, CausalCtx::P2p);
    _flows.send(routes, send.bytes,
                _system.config().collectiveChunkBytes,
                [this, latch, launched, src, dst] {
                    const Tick now = _system.eventQueue().now();
                    _syncTracker.end(now);
                    if (TraceSink *trace = _system.eventQueue().trace()) {
                        if (launched > now)
                            panic("p2p trace span launched at tick %llu, "
                                  "after its completion (%llu)",
                                  static_cast<unsigned long long>(
                                      launched),
                                  static_cast<unsigned long long>(now));
                        trace->addSpan(
                            "collective", "p2p",
                            "xfer d" + std::to_string(src) + "->d"
                                + std::to_string(dst),
                            launched, now - launched, "sync");
                    }
                    latch->complete();
                });
}

int
TrainingSession::reportDevice() const
{
    if (!_strategy.isPipeline())
        return 0;
    int best = 0;
    for (int d = 1; d < deviceCount(); ++d)
        if (computeTicks(d) > computeTicks(best))
            best = d;
    return best;
}

void
TrainingSession::completeOp(int dev)
{
    DeviceCtx &ctx = _devs[static_cast<std::size_t>(dev)];
    const std::size_t op_index = ctx.nextOp;
    const OpSpec &op = program(dev)[op_index];
    ctx.running = false;
    ctx.readyAt = _system.eventQueue().now();

    TraceSink *trace = _system.eventQueue().trace();
    if (trace && dev == 0 && op.duration > 0) {
        // Invariant guards: the span must not start before tick 0
        // (Tick is unsigned — "negative duration" is underflow) nor
        // extend past now().
        if (op.duration > ctx.readyAt)
            panic("op trace span of layer %d would start before tick "
                  "0 (duration %llu > end %llu)",
                  op.layer,
                  static_cast<unsigned long long>(op.duration),
                  static_cast<unsigned long long>(ctx.readyAt));
        if (ctx.readyAt > _system.eventQueue().now())
            panic("op trace span of layer %d ends at tick %llu, past "
                  "now (%llu)",
                  op.layer,
                  static_cast<unsigned long long>(ctx.readyAt),
                  static_cast<unsigned long long>(
                      _system.eventQueue().now()));
        const char *kind = op.kind == OpSpec::Kind::Fwd
            ? "fwd "
            : (op.kind == OpSpec::Kind::Bwd ? "bwd " : "wup ");
        const Tick span_start = ctx.readyAt - op.duration;
        trace->addSpan("device", computeTrack(),
                        kind + _net.layer(op.layer).name(), span_start,
                        op.duration);
        if (_iterFlow != 0) {
            // Head of a dispatch arrow armed by the cluster/serving
            // driver: bind to this, the iteration's first traced op.
            trace->flowEnd("device", computeTrack(), "dispatch",
                            span_start, _iterFlow);
            _iterFlow = 0;
        }
    }

    _pagers[static_cast<std::size_t>(dev)]->opRetired(op_index);

    for (const P2pSend &send : op.sends)
        issueP2p(dev, send);

    if (op.syncAfter) {
        auto it = _syncPoints.find(op_index);
        if (it == _syncPoints.end())
            panic("op %zu lacks its sync point", op_index);
        if (op.syncAfter->blocking)
            ctx.blockingGate = &it->second->latch();
        it->second->arrive();
    }

    ++ctx.nextOp;
    _pagers[static_cast<std::size_t>(dev)]->frontierAdvanced(
        ctx.nextOp);
    if (ctx.nextOp == program(dev).size())
        deviceFinished();
    else
        tryIssue(dev);
}

void
TrainingSession::deviceFinished()
{
    if (--_devicesRemaining == 0)
        finishWhenQuiescent();
}

void
TrainingSession::finishWhenQuiescent()
{
    // Trailing writeback DMAs outlive the compute programs; the
    // iteration (and the devices) are only done when they drain.
    for (auto &pager : _pagers) {
        if (!pager->dmaIdle()) {
            pager->whenDmaIdle([this] { finishWhenQuiescent(); });
            return;
        }
    }
    if (simcheck::enabled()) {
        // The loop above vouched for quiescence; re-assert it through
        // the fault handlers' own counters so a desynchronized
        // dmaIdle() shortcut cannot mask a leaked DMA.
        for (auto &pager : _pagers)
            pager->simcheckExpectQuiescent("end of iteration");
    }
    auto done = std::move(_onIterationDone);
    _onIterationDone = nullptr;
    done(collectResult());
}

void
TrainingSession::launchCollective(const SyncOp &sync,
                                  EventQueue::Callback on_done)
{
    if (_ownsAllDevices) {
        _system.collectives().launch(sync.kind, sync.bytes,
                                     std::move(on_done));
    } else {
        _system.collectives().launchOn(_jobRingPtrs, sync.kind,
                                       sync.bytes, std::move(on_done),
                                       sysDev(0));
    }
}

IterationResult
TrainingSession::run()
{
    std::optional<IterationResult> result;
    startIteration(
        [&result](const IterationResult &done) { result = done; });
    _system.eventQueue().run();
    if (result)
        return *std::move(result);

    // Deadlock: the queue drained before the iteration completed.
    for (int d = 0; d < deviceCount(); ++d) {
        const std::size_t next = _devs[static_cast<std::size_t>(d)].nextOp;
        if (next != program(d).size())
            panic("device %d stalled at op %zu/%zu — scheduling deadlock",
                  d, next, program(d).size());
    }
    panic("iteration drained without completing — a pager's DMA never "
          "went idle");
}

void
TrainingSession::startIteration(
    std::function<void(const IterationResult &)> on_done)
{
    allocateBuffers();

    // The fabric (and any co-located session's devices) are shared:
    // clear only the owned devices' per-iteration compute counters.
    for (int d = 0; d < deviceCount(); ++d)
        _system.device(sysDev(d)).resetStats();

    _onIterationDone = std::move(on_done);
    setupIteration();
}

void
TrainingSession::setupIteration()
{
    EventQueue &eq = _system.eventQueue();
    const int n = deviceCount();

    // Reset per-iteration state.
    _devs.assign(static_cast<std::size_t>(n), DeviceCtx{});
    _syncPoints.clear();
    _dwSync.clear();
    _p2pLatches.clear();
    for (int t = 0; t < _p2pTokenCount; ++t)
        _p2pLatches.push_back(std::make_unique<Latch>());
    _syncTracker.reset();
    _vmemTracker.reset();
    _stallSync.assign(static_cast<std::size_t>(n), 0);
    _stallVmem.assign(static_cast<std::size_t>(n), 0);
    _startTick = eq.now();
    _eventsBefore = eq.executedCount();
    _hostBytesBefore = _system.fabric().hostBytes();
    _dmaBytesBefore.clear();
    for (int d = 0; d < n; ++d) {
        const DmaEngine &dma = _system.dma(sysDev(d));
        _dmaBytesBefore.push_back(dma.bytesOffloaded()
                                  + dma.bytesPrefetched());
    }
    _chanBytesBefore.clear();
    _chanBusyBefore.clear();
    for (const Channel *ch : _system.fabric().channels()) {
        _chanBytesBefore.push_back(ch->bytesTransferred());
        _chanBusyBefore.push_back(ch->busyTicks());
    }
    _devicesRemaining = n;

    for (int d = 0; d < n; ++d)
        _pagers[static_cast<std::size_t>(d)]->beginIteration(
            d == 0 ? eq.trace() : nullptr);

    _iterSyncBytes = 0.0;
    if (_strategy.isPipeline()) {
        // Boundary activations forward + gradients backward; no
        // collectives to set up.
        _iterSyncBytes = _p2pBytesTotal;
    } else {
        for (std::size_t i = 0; i < _ops.size(); ++i) {
            if (!_ops[i].syncAfter)
                continue;
            const SyncOp sync = *_ops[i].syncAfter;
            _iterSyncBytes += sync.bytes;
            const std::string sync_label =
                std::string(collectiveKindName(sync.kind)) + " "
                + _net.layer(_ops[i].layer).name();
            auto point = std::make_unique<SyncPoint>(
                n, [this, sync, sync_label](Latch &latch) {
                    const Tick launched = _system.eventQueue().now();
                    _syncTracker.begin(launched);
                    launchCollective(
                        sync,
                        [this, &latch, launched, sync_label] {
                            EventQueue &queue = _system.eventQueue();
                            const Tick now = queue.now();
                            _syncTracker.end(now);
                            if (TraceSink *trace = queue.trace()) {
                                if (launched > now)
                                    panic("collective trace span "
                                          "launched at tick %llu, "
                                          "after its completion "
                                          "(%llu)",
                                          static_cast<
                                              unsigned long long>(
                                              launched),
                                          static_cast<
                                              unsigned long long>(
                                              now));
                                trace->addSpan("collective",
                                               "collectives",
                                               sync_label, launched,
                                               now - launched, "sync");
                            }
                            latch.complete();
                        });
                });
            if (_ops[i].kind == OpSpec::Kind::Bwd
                && _ops[i].syncAfter->kind == CollectiveKind::AllReduce
                && !_ops[i].syncAfter->blocking) {
                _dwSync[_ops[i].layer] = point.get();
            }
            _syncPoints.emplace(i, std::move(point));
        }
    }

    // Start every device's program (devices with empty programs —
    // idle pipeline positions — are already done).
    for (int d = 0; d < n; ++d) {
        _pagers[static_cast<std::size_t>(d)]->frontierAdvanced(0);
        tryIssue(d);
        if (program(d).empty())
            deviceFinished();
    }
}

IterationResult
TrainingSession::collectResult()
{
    EventQueue &eq = _system.eventQueue();

    // Device 0 represents the SPMD modes; pipeline reports the
    // bottleneck stage's view (the perf canary would otherwise watch
    // whatever landed on stage 0).
    const int report = reportDevice();
    const auto ureport = static_cast<std::size_t>(report);

    IterationResult result;
    result.makespan = eq.now() - _startTick;
    result.breakdown.computeSec = ticksToSeconds(computeTicks(report));
    result.breakdown.syncSec =
        ticksToSeconds(_syncTracker.total(eq.now()));
    result.breakdown.vmemSec =
        ticksToSeconds(_vmemTracker.total(eq.now()));
    result.breakdown.exposedSyncSec =
        ticksToSeconds(_stallSync[ureport]);
    result.breakdown.exposedVmemSec =
        ticksToSeconds(_stallVmem[ureport]);
    result.hostBytes =
        _system.fabric().hostBytes() - _hostBytesBefore;
    const int sockets = _system.config().fabric.numSockets;
    if (result.makespan > 0 && sockets > 0) {
        result.hostAvgBwPerSocket = result.hostBytes
            / ticksToSeconds(result.makespan)
            / static_cast<double>(sockets);
    }
    result.hostPeakBwPerSocket = _system.fabric().hostPeakBandwidth();
    const DmaEngine &dma = _system.dma(sysDev(report));
    result.offloadBytesPerDevice = dma.bytesOffloaded()
        + dma.bytesPrefetched() - _dmaBytesBefore[ureport];
    result.syncBytes = _iterSyncBytes;
    result.eventsExecuted = eq.executedCount() - _eventsBefore;
    result.paging = _pagers[ureport]->counters();

    // Per-channel deltas: where the iteration's traffic actually
    // queued, so sweeps can name the bottleneck link rather than just
    // the bottleneck pipeline stage.
    const std::vector<Channel *> channels = _system.fabric().channels();
    const double span = ticksToSeconds(result.makespan);
    result.channels.reserve(channels.size());
    for (std::size_t c = 0; c < channels.size(); ++c) {
        ChannelUsage usage;
        usage.channel = channels[c]->name();
        usage.bytes = channels[c]->bytesTransferred()
            - (c < _chanBytesBefore.size() ? _chanBytesBefore[c] : 0.0);
        usage.busySec = ticksToSeconds(
            channels[c]->busyTicks()
            - (c < _chanBusyBefore.size() ? _chanBusyBefore[c] : 0));
        usage.utilization = span > 0.0 ? usage.busySec / span : 0.0;
        usage.peakQueueDepth = channels[c]->peakQueueDepth();
        result.channels.push_back(std::move(usage));
    }
    return result;
}

} // namespace mcdla
