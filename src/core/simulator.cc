/**
 * @file
 * Simulator facade and sweep runner implementation.
 */

#include "core/simulator.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <set>
#include <thread>

#include "interconnect/channel.hh"
#include "sim/causal.hh"
#include "sim/logging.hh"
#include "system/system.hh"

namespace mcdla
{

void
registerSystemMetrics(MetricRegistry &metrics, System &system)
{
    const double period_sec = ticksToSeconds(metrics.period());
    for (Channel *ch : system.fabric().channels()) {
        // Utilization of the sampling period via busy-tick deltas.
        auto prev = std::make_shared<Tick>(ch->busyTicks());
        metrics.add("chan." + ch->name() + ".util",
                    [ch, prev, period_sec] {
                        const Tick busy = ch->busyTicks();
                        const Tick delta = busy - *prev;
                        *prev = busy;
                        return period_sec > 0.0
                            ? ticksToSeconds(delta) / period_sec
                            : 0.0;
                    });
    }
    EventQueue &eq = system.eventQueue();
    metrics.add("sim.pending_events",
                [&eq] { return static_cast<double>(eq.pendingCount()); });
}

void
attachObservers(const ObserverSet &observers, System &system)
{
    EventQueue &eq = system.eventQueue();
    eq.setTrace(observers.trace);
    eq.setProfiler(observers.profiler);
    eq.setCausalRecorder(observers.causal);
    if (observers.metrics != nullptr) {
        registerSystemMetrics(*observers.metrics, system);
        if (observers.trace != nullptr)
            observers.metrics->attachTrace(observers.trace);
    }
}

std::shared_ptr<const Network>
Simulator::network(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _networks.find(workload);
    if (it != _networks.end())
        return it->second;
    auto net = std::make_shared<const Network>(
        WorkloadRegistry::instance().at(workload).build());
    _networks.emplace(workload, net);
    return net;
}

IterationResult
Simulator::run(const Scenario &scenario)
{
    return run(scenario, Hooks{});
}

IterationResult
Simulator::run(const Scenario &scenario, const Hooks &hooks)
{
    return run(scenario, *network(scenario.workload), hooks);
}

IterationResult
Simulator::run(const Scenario &scenario, const Network &net) const
{
    return run(scenario, net, Hooks{});
}

IterationResult
Simulator::run(const Scenario &scenario, const Network &net,
               const Hooks &hooks) const
{
    EventQueue eq(scenario.base.eventQueueBackend);
    System system(eq, scenario.config());
    TrainingSession session(system, net, scenario.mode,
                            scenario.globalBatch,
                            scenario.pipelineStages,
                            scenario.microbatches);
    attachObservers(hooks, system);
    if (hooks.metrics != nullptr) {
        hooks.metrics->add("hbm.resident_gib", [&session] {
            return static_cast<double>(session.hbmResidentBytes())
                / (1024.0 * 1024.0 * 1024.0);
        });
    }

    IterationResult result;
    for (int i = 0; i < scenario.iterations; ++i) {
        // Arm (or re-arm) periodic sampling: the weak sampler event is
        // discarded at every iteration's drain.
        if (hooks.metrics != nullptr)
            hooks.metrics->start(eq);
        result = session.run();
    }
    if (hooks.stats != nullptr) {
        dumpSystemStats(system, *hooks.stats);
        session.dumpPagingStats(*hooks.stats);
    }
    if (hooks.postRun)
        hooks.postRun(system, result);
    return result;
}

SweepRunner::SweepRunner(SweepConfig cfg) : _cfg(cfg) {}

std::vector<IterationResult>
SweepRunner::run(const std::vector<Scenario> &scenarios,
                 std::vector<std::exception_ptr> *errors)
{
    std::vector<IterationResult> results(scenarios.size());

    // Build every distinct workload up front, serially: worker threads
    // then only read the cache, and the build order is deterministic.
    std::set<std::string> workloads;
    for (const Scenario &sc : scenarios)
        if (workloads.insert(sc.workload).second)
            _sim.network(sc.workload);

    int threads = _cfg.threads;
    if (threads <= 0)
        threads = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    threads = std::min<int>(threads,
                            static_cast<int>(scenarios.size()));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::vector<std::exception_ptr> failures(scenarios.size());

    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < scenarios.size();
             i = next.fetch_add(1)) {
            try {
                results[i] = _sim.run(scenarios[i]);
            } catch (...) {
                failures[i] = std::current_exception();
            }
            const std::size_t done = completed.fetch_add(1) + 1;
            if (_cfg.progress)
                inform("sweep %zu/%zu: %s", done, scenarios.size(),
                       scenarios[i].label().c_str());
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (errors != nullptr)
        *errors = std::move(failures);
    else
        for (const std::exception_ptr &error : failures)
            if (error)
                std::rethrow_exception(error);
    return results;
}

const std::vector<std::string> &
SweepRunner::resultColumns()
{
    static const std::vector<std::string> columns = {
        "workload", "design", "mode", "batch", "iteration_ms",
        "compute_ms", "sync_ms", "vmem_ms", "host_gb",
        "host_peak_gbps", "events"};
    return columns;
}

std::vector<ReportValue>
SweepRunner::resultRow(const Scenario &scenario,
                       const IterationResult &result)
{
    return {scenario.workload,
            std::string(kSystemDesigns.name(scenario.design)),
            std::string(kParallelModes.name(scenario.mode)),
            scenario.globalBatch,
            result.iterationSeconds() * 1e3,
            result.breakdown.computeSec * 1e3,
            result.breakdown.syncSec * 1e3,
            result.breakdown.vmemSec * 1e3,
            result.hostBytes / 1e9,
            result.hostPeakBwPerSocket / kGB,
            static_cast<std::int64_t>(result.eventsExecuted)};
}

SweepCursor::SweepCursor(const std::vector<Scenario> &scenarios,
                         const std::vector<IterationResult> &results)
    : _scenarios(scenarios), _results(results)
{
    if (scenarios.size() != results.size())
        panic("sweep cursor over %zu scenarios but %zu results",
              scenarios.size(), results.size());
}

const Scenario &
SweepCursor::peek() const
{
    if (_idx >= _scenarios.size())
        panic("sweep cursor ran past its %zu scenarios",
              _scenarios.size());
    return _scenarios[_idx];
}

const IterationResult &
SweepCursor::next(const std::string &workload, SystemDesign design,
                  ParallelMode mode)
{
    const Scenario &sc = peek();
    if (sc.workload != workload || sc.design != design
        || sc.mode != mode)
        panic("sweep cursor misaligned at %zu: consuming %s/%s/%s but "
              "the sweep ran %s",
              _idx, workload.c_str(), kSystemDesigns.token(design),
              kParallelModes.token(mode), sc.label().c_str());
    return _results[_idx++];
}

ResultSet
SweepRunner::runToResults(const std::vector<Scenario> &scenarios)
{
    const std::vector<IterationResult> results = run(scenarios);
    ResultSet table(resultColumns());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        table.addRow(resultRow(scenarios[i], results[i]));
    return table;
}

} // namespace mcdla
