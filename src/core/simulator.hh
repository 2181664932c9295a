/**
 * @file
 * Simulator facade and parallel sweep runner.
 *
 * Simulator turns a Scenario into an IterationResult with one call,
 * caching built networks by workload name so design/mode/batch grids
 * pay the network-construction cost once. SweepRunner executes a
 * scenario list across a thread pool — every scenario owns its private
 * EventQueue/System, so runs are independent — and returns results in
 * scenario order regardless of thread count, making parallel sweeps
 * bit-identical to serial ones.
 */

#ifndef MCDLA_CORE_SIMULATOR_HH
#define MCDLA_CORE_SIMULATOR_HH

#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/scenario.hh"
#include "sim/metrics.hh"
#include "sim/profiler.hh"
#include "system/training_session.hh"

namespace mcdla
{

class CausalRecorder;

/**
 * The observers of one run, all optional and owned by the caller. None
 * of them changes execution order or results. Simulator::Hooks,
 * ClusterConfig and ServingConfig carry one each; attachObservers()
 * wires it into a run.
 */
struct ObserverSet
{
    /** Chrome-tracing sink: spans, instants, flows and counters. */
    TraceSink *trace = nullptr;
    /** Metric time-series, sampled periodically for the whole run. */
    MetricRegistry *metrics = nullptr;
    /** DES wall-clock profiler. */
    DesProfiler *profiler = nullptr;
    /** Event-provenance recorder (critical path, what-if). */
    CausalRecorder *causal = nullptr;
};

/**
 * Register the standard machine-level gauges on @p metrics: one
 * "chan.<name>.util" utilization gauge per fabric channel (fraction of
 * the sampling period the link was busy, via busy-tick deltas) and a
 * "sim.pending_events" queue-depth gauge. Subsystems layer their own
 * gauges (pool occupancy, HBM residency, serving queues) on top.
 */
void registerSystemMetrics(MetricRegistry &metrics, System &system);

/**
 * Attach @p observers to a run on @p system. The trace sink, profiler
 * and causal recorder go on the System's EventQueue, where every
 * component reads them. The metric registry gains the
 * registerSystemMetrics() gauges and, with a trace sink, mirrors its
 * samples into the trace as counters. The caller then adds its own
 * gauges and starts sampling.
 */
void attachObservers(const ObserverSet &observers, System &system);

/**
 * One-call scenario execution with workload caching.
 *
 * With observers attached, a run traces the session's compute, DMA and
 * collective spans, and samples the system gauges plus device 0's HBM
 * residency ("hbm.resident_gib").
 */
class Simulator
{
  public:
    /** Optional per-run observers and inspection callbacks. */
    struct Hooks : ObserverSet
    {
        std::ostream *stats = nullptr; ///< gem5-style stats dump.
        /** Inspect the live System after the last iteration. */
        std::function<void(System &, const IterationResult &)> postRun;
    };

    /** Run one scenario on its registered workload. */
    IterationResult run(const Scenario &scenario);
    IterationResult run(const Scenario &scenario, const Hooks &hooks);

    /** Run one scenario on an externally built network. */
    IterationResult run(const Scenario &scenario,
                        const Network &net) const;
    IterationResult run(const Scenario &scenario, const Network &net,
                        const Hooks &hooks) const;

    /**
     * The cached network of a registered workload (built on first
     * use). Thread-safe; the returned pointer stays valid for the
     * simulator's lifetime.
     */
    std::shared_ptr<const Network> network(const std::string &workload);

  private:
    std::mutex _mutex;
    std::map<std::string, std::shared_ptr<const Network>> _networks;
};

/** Sweep execution parameters. */
struct SweepConfig
{
    /** Worker threads; <= 0 selects the hardware concurrency. */
    int threads = 1;
    /** Emit an inform() line as each scenario completes. */
    bool progress = false;
};

/** Deterministic multi-threaded execution of a scenario list. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepConfig cfg = {});

    /**
     * Run every scenario; results arrive in scenario order no matter
     * how many threads execute. An error in any scenario (with
     * LogConfig::throwOnError) is rethrown after the pool drains,
     * lowest scenario index first; given @p errors, each scenario's
     * error is left there instead (null where it ran), next to its
     * default result.
     */
    std::vector<IterationResult>
    run(const std::vector<Scenario> &scenarios,
        std::vector<std::exception_ptr> *errors = nullptr);

    /** Run and collect into the standard result table. */
    ResultSet runToResults(const std::vector<Scenario> &scenarios);

    /** Columns of runToResults() rows. */
    static const std::vector<std::string> &resultColumns();

    /** One standard result row. */
    static std::vector<ReportValue>
    resultRow(const Scenario &scenario, const IterationResult &result);

    /** The shared simulator (exposes the network cache). */
    Simulator &simulator() { return _sim; }

  private:
    SweepConfig _cfg;
    Simulator _sim;
};

/**
 * Checked sequential reader pairing sweep results with the grid loops
 * that consume them. Reporting code that replays the scenario-building
 * loops calls next() with its loop variables; the cursor panics the
 * moment the build and consume loops drift apart, instead of silently
 * attributing results to the wrong grid cell.
 */
class SweepCursor
{
  public:
    /** Both containers must outlive the cursor. */
    SweepCursor(const std::vector<Scenario> &scenarios,
                const std::vector<IterationResult> &results);

    /**
     * Scenario about to be consumed; panics past the end. Lets knob
     * sweeps (chunk size, socket caps, ...) verify the axes next()
     * does not compare before taking the result.
     */
    const Scenario &peek() const;

    /** Next result; panics unless workload/design/mode all match. */
    const IterationResult &next(const std::string &workload,
                                SystemDesign design, ParallelMode mode);

  private:
    const std::vector<Scenario> &_scenarios;
    const std::vector<IterationResult> &_results;
    std::size_t _idx = 0;
};

} // namespace mcdla

#endif // MCDLA_CORE_SIMULATOR_HH
