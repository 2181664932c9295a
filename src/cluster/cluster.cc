/**
 * @file
 * Cluster implementation.
 */

#include "cluster/cluster.hh"

#include <algorithm>

#include "sim/causal.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "system/analytic_model.hh"
#include "vmem/offload_plan.hh"

namespace mcdla
{

std::uint64_t
Cluster::jobPoolBytes(const JobSpec &spec, const Network &net,
                      const SystemConfig &cfg,
                      std::uint64_t page_bytes)
{
    if (!designVirtualizesMemory(cfg.design))
        return 0;

    auto roundToPoolPages = [page_bytes](double bytes) {
        const auto b = static_cast<std::uint64_t>(bytes) + 1;
        return (b + page_bytes - 1) / page_bytes * page_bytes;
    };

    const OffloadPlan plan(net, cfg.offloadPolicy());
    const ParallelStrategy strategy(
        net, spec.mode, spec.devices, spec.batch,
        PipelineConfig{spec.pipelineStages, spec.microbatches,
                       cfg.device});

    // Every device running a stage allocates each of its stash tensors
    // once per microbatch (dp/mp: one stage on every device, one
    // microbatch).
    std::vector<std::uint64_t> stage_devices(
        static_cast<std::size_t>(strategy.pipelineStages()), 0);
    for (int d = 0; d < spec.devices; ++d)
        if (const int s = strategy.stageOfDevice(d); s >= 0)
            ++stage_devices[static_cast<std::size_t>(s)];
    const auto waves = static_cast<std::uint64_t>(strategy.microbatches());
    std::uint64_t total = 0;
    for (int s = 0; s < strategy.pipelineStages(); ++s) {
        std::uint64_t stash = 0;
        for (LayerId layer : strategy.stageStashLayers(s, plan))
            stash += roundToPoolPages(
                strategy.offloadBytesPerDevice(net.layer(layer)));
        total += stage_devices[static_cast<std::size_t>(s)] * waves * stash;
    }
    return total;
}

Cluster::Cluster(ClusterConfig cfg, std::vector<JobSpec> jobs)
    : _cfg(std::move(cfg)), _eq(_cfg.base.base.eventQueueBackend)
{
    _system = std::make_unique<System>(_eq, _cfg.base.config());
    _poolCapacity = sharedPoolCapacityBytes(*_system);
    _pool = makePoolAllocator(_cfg.allocator, _poolCapacity);

    // The shared pool replaces the static per-device carve-out of the
    // standalone design: capacity is enforced here, so every device's
    // remote window is widened to the pool and the address space only
    // decides placement (the LOCAL/BW_AWARE traffic fractions).
    std::vector<int> devices;
    for (int d = 0; d < _system->numDevices(); ++d) {
        _system->addressSpace(d).uncapRemoteRegions(_poolCapacity);
        devices.push_back(d);
    }
    _jobs = std::make_unique<JobLifecycle>(
        _cfg, *_system, _networks, *_pool, _poolCapacity,
        std::move(devices), /*pinned_bytes=*/0, std::move(jobs));
}

std::uint64_t
sharedPoolCapacityBytes(System &system)
{
    // Sum each distinct backing-store target once: every memory-node
    // reachable from any device (halves of one board merge back into
    // the full board), or the host DRAM for the PCIe designs.
    std::uint64_t total = 0;
    bool host_counted = false;
    std::set<int> nodes;
    const SystemConfig &cfg = system.config();
    for (int d = 0; d < system.numDevices(); ++d) {
        const DeviceAddressSpace &space = system.addressSpace(d);
        for (std::size_t r = 0; r < space.regionCount(); ++r) {
            const RemoteRegion &region = space.region(r);
            if (region.targetIndex < 0) {
                if (!host_counted)
                    total += cfg.hostMemoryCapacity;
                host_counted = true;
            } else if (nodes.insert(region.targetIndex).second) {
                total += cfg.memNode.capacity();
            }
        }
    }
    // Designs without a backing store (the oracle) never allocate;
    // give the allocator a token capacity so it can exist.
    return total > 0 ? total : 1;
}

std::vector<int>
placeJobDevices(const Fabric &fabric, const std::vector<int> &free,
                int count, JobPlacement placement)
{
    const auto want = static_cast<std::size_t>(count);
    if (placement == JobPlacement::First || want >= free.size())
        return std::vector<int>(free.begin(),
                                free.begin()
                                    + static_cast<std::ptrdiff_t>(
                                        std::min(want, free.size())));

    // Compact placement: real hop counts over the fabric topology.
    // Grow a gang greedily from every possible seed and keep the
    // placement with the lowest total pairwise distance; ties resolve
    // to the lowest-numbered seed/candidate, so the policy is
    // deterministic and degrades to "first" on uniform fabrics.
    constexpr int kUnreachable = 1 << 20;
    auto dist = [&fabric](int a, int b) {
        const int fwd = fabric.deviceHopCount(a, b);
        const int bwd = fabric.deviceHopCount(b, a);
        return (fwd < 0 ? kUnreachable : fwd)
            + (bwd < 0 ? kUnreachable : bwd);
    };

    std::vector<int> best;
    long best_cost = 0;
    for (int seed : free) {
        std::vector<int> gang{seed};
        long cost = 0;
        while (gang.size() < want) {
            int pick = -1;
            long pick_cost = 0;
            for (int cand : free) {
                if (std::find(gang.begin(), gang.end(), cand)
                    != gang.end())
                    continue;
                long c = 0;
                for (int member : gang)
                    c += dist(member, cand);
                if (pick < 0 || c < pick_cost) {
                    pick = cand;
                    pick_cost = c;
                }
            }
            gang.push_back(pick);
            cost += pick_cost;
        }
        if (best.empty() || cost < best_cost) {
            best = std::move(gang);
            best_cost = cost;
        }
    }
    std::sort(best.begin(), best.end());
    return best;
}

ClusterReport
Cluster::run()
{
    if (_ran)
        fatal("a Cluster can only run once");
    _ran = true;

    attachObservers(_cfg, *_system);
    if (_cfg.metrics != nullptr) {
        _cfg.metrics->add("pool.used_gib", [this] {
            return static_cast<double>(_pool->usedBytes())
                / (1024.0 * 1024.0 * 1024.0);
        });
        _cfg.metrics->add("pool.frag",
                          [this] { return _pool->fragmentation(); });
        _cfg.metrics->add("cluster.busy_devices", [this] {
            return static_cast<double>(_jobs->busyDevices());
        });
        _cfg.metrics->add("cluster.queued_jobs", [this] {
            return static_cast<double>(_jobs->queuedJobs());
        });
        _cfg.metrics->add("cluster.running_jobs", [this] {
            return static_cast<double>(_jobs->runningJobs());
        });
        _cfg.metrics->start(_eq);
    }

    _jobs->scheduleArrivals();
    _eq.run();
    _jobs->checkDrained();

    ClusterReport report;
    report.jobs = _jobs->outcomes();
    report.timeline = _jobs->timeline();
    report.makespanSec = ticksToSeconds(_eq.now());
    report.scheduler = _cfg.scheduler;
    report.allocator = _cfg.allocator;
    report.placement = _cfg.placement;
    report.poolCapacity = _poolCapacity;
    report.poolPeakUsed = _pool->peakUsedBytes();
    report.allocationFailures = _pool->allocationFailures();
    return report;
}

// ------------------------------------------------------- job lifecycle

JobLifecycle::JobLifecycle(const ClusterConfig &cfg, System &system,
                           Simulator &networks,
                           MemoryPoolAllocator &pool,
                           std::uint64_t pool_capacity,
                           std::vector<int> devices,
                           std::uint64_t pinned_bytes,
                           std::vector<JobSpec> jobs)
    : _cfg(cfg), _system(system), _eq(system.eventQueue()),
      _networks(networks), _pool(pool), _poolCapacity(pool_capacity),
      _deviceCount(devices.size()), _pinnedBytes(pinned_bytes),
      _specs(std::move(jobs)), _scheduler(makeScheduler(cfg.scheduler)),
      _freeDevices(devices.begin(), devices.end())
{
    std::stable_sort(_specs.begin(), _specs.end(),
                     [](const JobSpec &a, const JobSpec &b) {
                         return a.arrivalSec < b.arrivalSec;
                     });
    _outcomes.resize(_specs.size());
    for (std::size_t i = 0; i < _specs.size(); ++i) {
        if (_specs[i].name.empty())
            _specs[i].name = "job" + std::to_string(i);
        _outcomes[i].spec = _specs[i];
        _outcomes[i].arrivalSec = _specs[i].arrivalSec;
    }
}

void
JobLifecycle::scheduleArrivals()
{
    // Arrivals are scheduler-wait edges: a job's first admission
    // attempt causally hangs off its arrival event.
    CausalScope causal_scope(_eq.causalRecorder(), WaitKind::Sched,
                             CausalCtx::Cluster);
    for (std::size_t i = 0; i < _specs.size(); ++i) {
        _eq.schedule(secondsToTicks(_specs[i].arrivalSec),
                     [this, i] { onArrival(i); }, "job_arrival");
    }
}

void
JobLifecycle::checkDrained() const
{
    if (!_queue.empty()) {
        panic("drained with %zu jobs still queued (first: %s)",
              _queue.size(),
              _specs[_queue.front().jobIndex].label().c_str());
    }
    if (!_active.empty())
        panic("drained with %zu jobs still running", _active.size());
}

int
JobLifecycle::busyDevices() const
{
    return static_cast<int>(_deviceCount - _freeDevices.size());
}

void
JobLifecycle::onArrival(std::size_t index)
{
    const JobSpec &spec = _specs[index];
    JobOutcome &outcome = _outcomes[index];

    const Network &net = *_networks.network(spec.workload);

    // Infeasible jobs can never start; reject them instead of wedging
    // the queue (or, worse, letting ParallelStrategy's constructor
    // kill the whole run mid-stream). The shape checks mirror the
    // strategy's own fatal paths.
    bool feasible = spec.devices >= 1
        && static_cast<std::size_t>(spec.devices) <= _deviceCount;
    if (feasible && spec.mode == ParallelMode::Pipeline) {
        const int stages = spec.pipelineStages > 0 ? spec.pipelineStages
                                                   : spec.devices;
        feasible = stages <= spec.devices
            && static_cast<std::size_t>(stages) <= net.size()
            && spec.microbatches >= 1
            && spec.batch >= spec.microbatches;
    } else if (feasible) {
        feasible = spec.batch >= spec.devices;
    }

    std::uint64_t demand = 0;
    if (feasible) {
        demand = Cluster::jobPoolBytes(
            spec, net, _system.config(),
            _system.addressSpace(0).pageBytes());
        // Bytes pinned for the whole run shrink the pool; a job that
        // can never fit beside them is rejected.
        if (demand > 0) {
            const auto probe = makePoolAllocator(_cfg.allocator,
                                                 _poolCapacity);
            feasible = _pinnedBytes < _poolCapacity
                && probe->canAllocate(demand + _pinnedBytes);
        }
    }
    if (!feasible) {
        outcome.rejected = true;
        warn("cluster rejects %s: its shape (%d devices, %s pool "
             "demand) cannot ever run on its %zu devices",
             spec.label().c_str(), spec.devices,
             formatBytes(static_cast<double>(demand)).c_str(),
             _deviceCount);
        if (TraceSink *trace = _eq.trace())
            trace->addInstant("cluster", "rejected",
                              "reject " + spec.label(), _eq.now(), "job");
        return;
    }

    // The SJF oracle: the analytic estimator's no-overlap bound on the
    // job's solo iteration, scaled by its iteration count.
    SystemConfig job_cfg = _system.config();
    job_cfg.fabric.numDevices = spec.devices;
    const AnalyticEstimate estimate = estimateIteration(
        job_cfg, net, spec.mode, spec.batch, spec.pipelineStages,
        spec.microbatches);
    outcome.estSoloSec = estimate.upperBoundSec()
        * static_cast<double>(spec.iterations);
    outcome.poolBytes = demand;

    PendingJob pending;
    pending.jobIndex = index;
    pending.devices = spec.devices;
    pending.poolBytes = demand;
    pending.estServiceSec = outcome.estSoloSec;
    pending.arrivalSec = spec.arrivalSec;
    _queue.push_back(pending);

    tryAdmit();
}

void
JobLifecycle::tryAdmit()
{
    while (!_queue.empty()) {
        const std::size_t pos = _scheduler->pick(
            _queue, static_cast<int>(_freeDevices.size()), _pool);
        if (pos == JobScheduler::npos)
            break;
        startJob(pos);
    }

    // Record memory-induced blocking — the job the policy is stalled
    // on has the devices but the pool cannot place its block — once
    // per blocked episode, not once per scheduling pass.
    const int free = static_cast<int>(_freeDevices.size());
    const std::size_t candidate =
        _scheduler->blockedCandidate(_queue, free, _pool);
    if (candidate != JobScheduler::npos
        && JobScheduler::memoryBlocked(_queue[candidate], free, _pool)) {
        if (_memoryBlockedJob != _queue[candidate].jobIndex) {
            _pool.noteFailure();
            samplePool("fail",
                       _specs[_queue[candidate].jobIndex].name);
            _memoryBlockedJob = _queue[candidate].jobIndex;
        }
    } else {
        _memoryBlockedJob = JobScheduler::npos;
    }
}

void
JobLifecycle::startJob(std::size_t queue_pos)
{
    const PendingJob pending = _queue[queue_pos];
    _queue.erase(_queue.begin()
                 + static_cast<std::ptrdiff_t>(queue_pos));

    const std::size_t index = pending.jobIndex;
    const JobSpec &spec = _specs[index];
    JobOutcome &outcome = _outcomes[index];

    ActiveJob active;
    if (pending.poolBytes > 0) {
        auto block = _pool.allocate(pending.poolBytes);
        if (!block)
            panic("scheduler admitted %s but the pool cannot place %s",
                  spec.label().c_str(),
                  formatBytes(static_cast<double>(
                      pending.poolBytes)).c_str());
        active.block = *block;
        active.hasBlock = true;
    }

    outcome.devices = placeJobDevices(
        _system.fabric(),
        std::vector<int>(_freeDevices.begin(), _freeDevices.end()),
        pending.devices, _cfg.placement);
    for (int d : outcome.devices)
        _freeDevices.erase(d);
    outcome.startSec = ticksToSeconds(_eq.now());

    active.net = _networks.network(spec.workload);
    active.session = std::make_unique<TrainingSession>(
        _system, *active.net, spec.mode, spec.batch,
        spec.pipelineStages, spec.microbatches, outcome.devices);
    active.remainingIterations = spec.iterations;
    active.startTick = _eq.now();
    if (TraceSink *trace = _eq.trace()) {
        // Per-job track on the "cluster" process: the queueing span
        // closes here, the running span closes at finishJob(), and a
        // flow arrow links admission to the job's first compute op.
        active.traceTrack =
            "job" + std::to_string(index) + " " + spec.name;
        const Tick arrival = secondsToTicks(spec.arrivalSec);
        if (_eq.now() > arrival)
            trace->addSpan("cluster", active.traceTrack,
                           "queued " + spec.label(), arrival,
                           _eq.now() - arrival, "queue");
        const std::uint64_t flow = trace->newFlow();
        trace->flowBegin("cluster", active.traceTrack, "dispatch",
                         _eq.now(), flow, "job");
        active.session->setIterationFlow(flow);
    }
    _active.emplace(index, std::move(active));

    if (_cfg.progress)
        inform("t=%.3fs start %s on %d devices (%s pool)",
               outcome.startSec, spec.label().c_str(), pending.devices,
               formatBytes(static_cast<double>(
                   pending.poolBytes)).c_str());
    samplePool("alloc", spec.name);
    stepJob(index);
}

void
JobLifecycle::stepJob(std::size_t index)
{
    ActiveJob &active = _active.at(index);
    active.session->startIteration(
        [this, index](const IterationResult &result) {
            ActiveJob &job = _active.at(index);
            _outcomes[index].lastIteration = result;
            if (--job.remainingIterations > 0) {
                stepJob(index);
                return;
            }
            finishJob(index);
        });
}

void
JobLifecycle::finishJob(std::size_t index)
{
    JobOutcome &outcome = _outcomes[index];
    outcome.finishSec = ticksToSeconds(_eq.now());
    outcome.completed = true;
    if (TraceSink *trace = _eq.trace()) {
        const ActiveJob &job = _active.at(index);
        trace->addSpan("cluster", job.traceTrack,
                       "run " + outcome.spec.label(), job.startTick,
                       _eq.now() - job.startTick, "job");
    }
    if (_cfg.progress)
        inform("t=%.3fs finish %s (JCT %.3fs, queued %.3fs)",
               outcome.finishSec, outcome.spec.label().c_str(),
               outcome.jctSec(), outcome.queueSec());

    // Tear down from a fresh event: the session is live on the call
    // stack (this runs inside its completion callback). The cleanup
    // event re-runs admission, so waiting jobs' starts hang off it as
    // scheduler-wait edges.
    CausalScope causal_scope(_eq.causalRecorder(), WaitKind::Sched,
                             CausalCtx::Cluster);
    _eq.schedule(_eq.now(), [this, index] { cleanupJob(index); },
                 "job_cleanup");
}

void
JobLifecycle::cleanupJob(std::size_t index)
{
    auto it = _active.find(index);
    if (it == _active.end())
        panic("cleanup of job %zu which is not active", index);
    it->second.session->releaseBuffers();
    for (int d : _outcomes[index].devices)
        _freeDevices.insert(d);
    if (it->second.hasBlock)
        _pool.release(it->second.block);
    _active.erase(it);
    samplePool("free", _outcomes[index].spec.name);
    tryAdmit();
}

void
JobLifecycle::samplePool(const char *event, const std::string &job)
{
    PoolSample sample;
    sample.timeSec = ticksToSeconds(_eq.now());
    sample.event = event;
    sample.job = job;
    sample.usedBytes = _pool.usedBytes();
    sample.freeBytes = _pool.freeBytes();
    sample.largestFreeBytes = _pool.largestFreeBlock();
    sample.fragmentation = _pool.fragmentation();
    sample.busyDevices = busyDevices();
    _timeline.push_back(std::move(sample));
}

// ------------------------------------------------------------- report

std::size_t
ClusterReport::completedJobs() const
{
    std::size_t n = 0;
    for (const JobOutcome &job : jobs)
        if (job.completed)
            ++n;
    return n;
}

double
ClusterReport::meanJctSec() const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const JobOutcome &job : jobs) {
        if (!job.completed)
            continue;
        total += job.jctSec();
        ++n;
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
}

double
ClusterReport::meanQueueSec() const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const JobOutcome &job : jobs) {
        if (!job.completed)
            continue;
        total += job.queueSec();
        ++n;
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
}

double
ClusterReport::meanSlowdown() const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const JobOutcome &job : jobs) {
        if (!job.completed)
            continue;
        total += job.slowdown();
        ++n;
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
}

double
ClusterReport::jctPercentileSec(double p) const
{
    std::vector<double> jcts;
    for (const JobOutcome &job : jobs)
        if (job.completed)
            jcts.push_back(job.jctSec());
    return percentile(std::move(jcts), p);
}

double
ClusterReport::slowdownPercentile(double p) const
{
    std::vector<double> slowdowns;
    for (const JobOutcome &job : jobs)
        if (job.completed)
            slowdowns.push_back(job.slowdown());
    return percentile(std::move(slowdowns), p);
}

double
ClusterReport::meanFragmentation() const
{
    if (timeline.empty())
        return 0.0;
    double total = 0.0;
    for (const PoolSample &sample : timeline)
        total += sample.fragmentation;
    return total / static_cast<double>(timeline.size());
}

double
ClusterReport::peakPoolUtilization() const
{
    return poolCapacity > 0
        ? static_cast<double>(poolPeakUsed)
            / static_cast<double>(poolCapacity)
        : 0.0;
}

const std::vector<std::string> &
ClusterReport::jobColumns()
{
    static const std::vector<std::string> columns = {
        "job",        "workload",   "mode",       "batch",
        "devices",    "iterations", "pool_gib",   "arrival_s",
        "start_s",    "finish_s",   "queue_s",    "service_s",
        "jct_s",      "slowdown",   "est_solo_s", "contention",
        "iter_ms",    "status"};
    return columns;
}

std::vector<ReportValue>
ClusterReport::jobRow(const JobOutcome &job)
{
    const char *status = job.rejected
        ? "rejected"
        : (job.completed ? "completed" : "incomplete");
    const bool done = job.completed;
    return {job.spec.name,
            job.spec.workload,
            std::string(kParallelModes.token(job.spec.mode)),
            job.spec.batch,
            static_cast<std::int64_t>(job.spec.devices),
            static_cast<std::int64_t>(job.spec.iterations),
            static_cast<double>(job.poolBytes)
                / static_cast<double>(kGiB),
            job.arrivalSec,
            done ? job.startSec : 0.0,
            done ? job.finishSec : 0.0,
            done ? job.queueSec() : 0.0,
            done ? job.serviceSec() : 0.0,
            done ? job.jctSec() : 0.0,
            done ? job.slowdown() : 0.0,
            job.estSoloSec,
            done ? job.contention() : 0.0,
            done ? job.lastIteration.iterationSeconds() * 1e3 : 0.0,
            std::string(status)};
}

ResultSet
ClusterReport::jobTable() const
{
    ResultSet table(jobColumns());
    for (const JobOutcome &job : jobs)
        table.addRow(jobRow(job));
    return table;
}

const std::vector<std::string> &
ClusterReport::poolColumns()
{
    static const std::vector<std::string> columns = {
        "time_s",       "event",        "job",
        "used_gib",     "free_gib",     "largest_free_gib",
        "fragmentation", "busy_devices"};
    return columns;
}

ResultSet
ClusterReport::poolTable() const
{
    ResultSet table(poolColumns());
    for (const PoolSample &sample : timeline) {
        table.addRow({sample.timeSec,
                      std::string(sample.event),
                      sample.job,
                      static_cast<double>(sample.usedBytes)
                          / static_cast<double>(kGiB),
                      static_cast<double>(sample.freeBytes)
                          / static_cast<double>(kGiB),
                      static_cast<double>(sample.largestFreeBytes)
                          / static_cast<double>(kGiB),
                      sample.fragmentation,
                      static_cast<std::int64_t>(sample.busyDevices)});
    }
    return table;
}

} // namespace mcdla
