/**
 * @file
 * Causal observability for the DES: event provenance, critical-path
 * extraction, per-channel slack, and Coz-style what-if estimation.
 *
 * A CausalRecorder attaches to an EventQueue
 * (EventQueue::setCausalRecorder) and records, for every scheduled
 * event, its *parent* — the event that was executing when it was
 * scheduled — plus a typed wait edge (WaitKind) and a subsystem
 * context (CausalCtx) supplied by CausalScope RAII tags at the
 * instrumentation sites (Channel, CollectiveEngine, DmaEngine,
 * TrainingSession, Cluster, ServingCluster). Because every event chain
 * in this kernel is "last-arrival binds" — a joined continuation runs
 * inside the event that completed last — the parent tree *is* the
 * binding-dependency DAG, and walking it back from the final event
 * yields the simulated-time critical path.
 *
 * The recorder is purely an observer: it never schedules or reorders
 * anything, so execution with it attached is event-for-event
 * identical to execution without it (the determinism-audit stream hash
 * is unchanged). Detached, the kernel pays one branch per schedule.
 *
 * CausalAnalysis post-processes a recorded run: critical path with
 * per-kind/per-subsystem/per-resource attribution that sums to the
 * makespan, a backward-pass slack computation whose per-channel
 * minima are the safe lookahead windows for conservative parallel
 * DES, and a what-if engine that rescales one resource class's edge
 * latencies along the recorded DAG to predict the new makespan.
 */

#ifndef MCDLA_SIM_CAUSAL_HH
#define MCDLA_SIM_CAUSAL_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/units.hh"

namespace mcdla
{

class ResultSet;
class TraceSink;

/**
 * What the edge from parent to child *is*, physically: the typed wait
 * taxonomy. The edge latency (child fire - parent fire) is time spent
 * in this kind of wait.
 */
enum class WaitKind : std::uint8_t
{
    Control = 0,  ///< Untyped glue (zero-latency chaining, timers).
    Compute,      ///< Device compute-stream occupancy.
    Collective,   ///< Collective-engine step (degenerate/noop hops).
    ChanXfer,     ///< Channel occupancy, started on an idle channel.
    ChanQueue,    ///< Channel occupancy after queueing behind others.
    Wire,         ///< Propagation latency after occupancy ends.
    Dma,          ///< DMA-engine internal events (empty transfers).
    Sched,        ///< Cluster scheduler: job arrival/start/cleanup.
    Batch,        ///< Serving: request arrival, batch timers/cleanup.
};

/** Number of WaitKind values (array sizing). */
constexpr std::size_t kWaitKindCount = 9;

/** Stable token for CSV/JSON output and --whatif classes. */
const char *waitKindToken(WaitKind kind);

/**
 * Which subsystem caused the chain this event belongs to. Set by the
 * launching scope (a DMA, a collective, a p2p transfer, a cluster
 * scheduler action, a serving action) and *inherited* from the parent
 * otherwise, so e.g. channel events servicing a DMA stay attributed
 * to the vmem subsystem across arbitrarily long hop chains.
 */
enum class CausalCtx : std::uint8_t
{
    None = 0,   ///< Main line of the run ("main" in reports).
    Collective, ///< Collective all-reduce/gather/broadcast traffic.
    P2p,        ///< Pipeline boundary point-to-point transfers.
    Dma,        ///< Memory-virtualization (paging/DMA) traffic.
    Cluster,    ///< Cluster scheduler control path.
    Serving,    ///< Serving router/batcher control path.
};

/** Number of CausalCtx values (array sizing). */
constexpr std::size_t kCausalCtxCount = 6;

/** Stable token for CSV/JSON output and --whatif classes. */
const char *causalCtxToken(CausalCtx ctx);

/**
 * Provenance recorder. Attach with EventQueue::setCausalRecorder
 * *before* the run so every event is captured; all hooks are O(1).
 */
class CausalRecorder
{
  public:
    /** One recorded event. */
    struct Node
    {
        Tick sched = 0;  ///< Tick at which the event was scheduled.
        Tick fire = 0;   ///< Execution tick (valid when executed).
        /** Parent node index; -1 for roots (scheduled outside any
            event, e.g. arrival streams armed before run()). */
        std::int64_t parent = -1;
        std::uint32_t label = 0;     ///< Interned event name.
        std::uint16_t resource = 0;  ///< Interned resource; 0 = none.
        WaitKind kind = WaitKind::Control;
        CausalCtx ctx = CausalCtx::None;
        bool executed = false;
        bool weak = false;
    };

    /// @name EventQueue hooks (no-ops must never reach here: the
    /// queue guards every call on the attached pointer). The queue
    /// stores the node index returned by noteSchedule in the event's
    /// pooled slot and hands it back on execute; -1 means
    /// "not recorded" (scheduled before the recorder attached) and is
    /// ignored — such events' children become roots.
    /// @{
    std::int64_t noteSchedule(Tick now, const std::string &name,
                              bool weak);

    void
    noteExecute(std::int64_t node, Tick now)
    {
        if (node < 0
            || static_cast<std::size_t>(node) >= _nodes.size()) {
            _current = -1;
            return;
        }
        Node &entry = _nodes[static_cast<std::size_t>(node)];
        entry.fire = now;
        entry.executed = true;
        ++_executed;
        _current = node;
    }

    void noteExecuteEnd() { _current = -1; }
    /// @}

    /**
     * What a schedule right now inherits from the run: the executing
     * node as parent, the schedule tick and the subsystem context. A
     * component that reserves a seq now but schedules the event only
     * later (a Channel's deferred delivery) captures it here and
     * schedules under a CausalScope built from it, so the event's node
     * is the one an immediate schedule would have recorded.
     */
    struct Origin
    {
        std::int64_t parent = -1;
        Tick sched = 0;
        std::uint8_t ctx = 0; ///< Raw CausalCtx (currentCtxRaw()).
    };

    /** The origin of a schedule at tick @p now (see Origin). */
    Origin
    origin(Tick now) const
    {
        return Origin{_current, now, currentCtxRaw()};
    }

    /// @name Scope state (used by CausalScope and Channel)
    /// @{
    /** Effective context right now: scope override, else the
        executing event's context, else None. Raw form so components
        can stash it in POD members (Channel's per-transfer capture). */
    std::uint8_t
    currentCtxRaw() const
    {
        if (_scope.hasCtx)
            return static_cast<std::uint8_t>(_scope.ctx);
        if (_current >= 0)
            return static_cast<std::uint8_t>(
                _nodes[static_cast<std::size_t>(_current)].ctx);
        return static_cast<std::uint8_t>(CausalCtx::None);
    }

    static CausalCtx
    ctxFromRaw(std::uint8_t raw)
    {
        return raw < kCausalCtxCount ? static_cast<CausalCtx>(raw)
                                     : CausalCtx::None;
    }
    /// @}

    /// @name Recorded data (analysis / tests)
    /// @{
    const std::vector<Node> &nodes() const { return _nodes; }
    const std::string &resourceName(std::uint16_t id) const;
    const std::string &labelName(std::uint32_t id) const;
    const std::vector<std::string> &resourceNames() const
    {
        return _resourceNames;
    }
    std::uint64_t scheduled() const { return _nodes.size(); }
    std::uint64_t executedCount() const { return _executed; }
    /// @}

    /**
     * SimCheck: DAG conservation and monotonicity. Every executed
     * node's parent executed, was executing at the child's schedule
     * tick (parent.fire == child.sched), and fired no later than the
     * child; the executed nodes are exactly those noteExecute()
     * counted (the rest are pending or discarded weak events). Panics
     * (SimCheck[causal]) on violation.
     */
    void simcheckVerify() const;

  private:
    friend class CausalScope;

    struct ScopeState
    {
        bool hasKind = false;
        WaitKind kind = WaitKind::Control;
        bool hasCtx = false;
        CausalCtx ctx = CausalCtx::None;
        std::uint16_t resource = 0;
        /** Set by an origin scope: parent and schedule tick replace
            the executing node and now. */
        bool hasOrigin = false;
        std::int64_t parent = -1;
        Tick sched = 0;
    };

    std::uint16_t internResource(const std::string &name);
    std::uint32_t internLabel(const std::string &name);

    std::vector<Node> _nodes;
    std::int64_t _current = -1; ///< Node executing now (-1 = none).
    std::uint64_t _executed = 0;
    ScopeState _scope;
    std::vector<std::string> _resourceNames;   // [0] = ""
    std::vector<std::string> _labelNames;      // [0] = ""
    std::unordered_map<std::string, std::uint16_t> _resourceIds;
    std::unordered_map<std::string, std::uint32_t> _labelIds;
};

/**
 * RAII wait-edge tag: events scheduled while the scope is alive get
 * its kind (and context/resource when given) instead of the inherited
 * defaults. Scopes nest; a null recorder makes the scope free.
 */
class CausalScope
{
  public:
    CausalScope(CausalRecorder *rec, WaitKind kind)
        : CausalScope(rec, kind, false, CausalCtx::None, nullptr)
    {}

    CausalScope(CausalRecorder *rec, WaitKind kind, CausalCtx ctx)
        : CausalScope(rec, kind, true, ctx, nullptr)
    {}

    CausalScope(CausalRecorder *rec, WaitKind kind,
                const std::string &resource)
        : CausalScope(rec, kind, false, CausalCtx::None, &resource)
    {}

    CausalScope(CausalRecorder *rec, WaitKind kind, CausalCtx ctx,
                const std::string &resource)
        : CausalScope(rec, kind, true, ctx, &resource)
    {}

    /** Events scheduled in this scope record @p origin (captured
        earlier by CausalRecorder::origin()) as their parent, schedule
        tick and context, with @p kind and @p resource. */
    CausalScope(CausalRecorder *rec, const CausalRecorder::Origin &origin,
                WaitKind kind, const std::string &resource)
        : CausalScope(rec, kind, true,
                      CausalRecorder::ctxFromRaw(origin.ctx), &resource)
    {
        if (_rec == nullptr)
            return;
        _rec->_scope.hasOrigin = true;
        _rec->_scope.parent = origin.parent;
        _rec->_scope.sched = origin.sched;
    }

    ~CausalScope()
    {
        if (_rec != nullptr)
            _rec->_scope = *_saved;
    }

    CausalScope(const CausalScope &) = delete;
    CausalScope &operator=(const CausalScope &) = delete;

  private:
    CausalScope(CausalRecorder *rec, WaitKind kind, bool has_ctx,
                CausalCtx ctx, const std::string *resource)
        : _rec(rec)
    {
        if (_rec == nullptr)
            return;
        _saved.emplace(_rec->_scope);
        _rec->_scope.hasKind = true;
        _rec->_scope.kind = kind;
        if (has_ctx) {
            _rec->_scope.hasCtx = true;
            _rec->_scope.ctx = ctx;
        }
        if (resource != nullptr && !resource->empty())
            _rec->_scope.resource = _rec->internResource(*resource);
    }

    CausalRecorder *_rec;
    /** The recorder's scope state to restore; saved only with a
        recorder, so a scope without one costs a pointer test. */
    std::optional<CausalRecorder::ScopeState> _saved;
};

/** One --whatif change: scale every edge of @p cls by @p factor. */
struct WhatIfChange
{
    std::string cls;      ///< Class token or recorded resource name.
    double factor = 0.5;  ///< Duration multiplier (0.5 = 2x faster).
};

/** Predicted effect of a what-if change set. */
struct WhatIfResult
{
    Tick baseline = 0;        ///< Recorded makespan.
    double predicted = 0.0;   ///< Predicted makespan (ticks).
    std::uint64_t scaledEdges = 0; ///< Edges the change set touched.

    double
    speedup() const
    {
        return predicted > 0.0
            ? static_cast<double>(baseline) / predicted
            : 0.0;
    }
};

/**
 * Parse "class:factor[,class:factor...]"; a missing factor means 0.5.
 * Syntax errors are fatal; class names are validated by whatIf()
 * against the recorded run.
 */
std::vector<WhatIfChange> parseWhatIfSpec(const std::string &spec);

/**
 * Post-run analysis over a CausalRecorder. The recorder must outlive
 * the analysis. Construction walks the DAG once (and runs
 * CausalRecorder::simcheckVerify when SimCheck is enabled).
 */
class CausalAnalysis
{
  public:
    explicit CausalAnalysis(const CausalRecorder &rec);

    /** Fire tick of the last executed non-weak event (0 if none). */
    Tick makespan() const { return _makespan; }

    /** Critical path as node indices, root first. */
    const std::vector<std::size_t> &criticalPath() const
    {
        return _path;
    }

    /** Ticks before the path root was even scheduled (nonzero only
        when the root was armed mid-run, e.g. iterations > 1). */
    Tick originTicks() const { return _origin; }

    /** Wait ticks attributed to @p kind along the critical path. */
    Tick pathKindTicks(WaitKind kind) const
    {
        return _kindTicks[static_cast<std::size_t>(kind)];
    }

    /** Wait ticks attributed to @p ctx along the critical path. */
    Tick pathCtxTicks(CausalCtx ctx) const
    {
        return _ctxTicks[static_cast<std::size_t>(ctx)];
    }

    /**
     * Critical-path steps, root first: step, tick_ms, wait_ms, kind,
     * subsystem, resource, label. wait_ms of step 0 spans from the
     * root's schedule tick; an initial "origin" row covers any time
     * before that, so the wait_ms column sums to makespan().
     */
    ResultSet criticalPathTable() const;

    /**
     * Per-class wait attribution along the critical path: group
     * ("kind" / "subsystem" / "resource"), class, wait_ms, share,
     * edges. Within the kind and subsystem groups the wait_ms rows
     * (including "origin") each sum to makespan().
     */
    ResultSet attributionTable() const;

    /**
     * Per-resource slack over channel events (xfer/queue/wire): how
     * long each event could slip without moving the makespan.
     * Columns: resource, edges, min/p50/mean/max slack (us) and a
     * log-bucket histogram. The min is the measured safe lookahead
     * for conservative parallel DES partitions using that channel.
     */
    ResultSet slackTable() const;

    /**
     * Coz-style virtual speedup: rescale matching edges along the
     * recorded DAG and replay the schedule forward. The recorded
     * parent is assumed to stay the binding dependency, so large
     * factors that would flip a join's winner are underestimated —
     * see README "what-if caveats". Unknown classes are fatal and
     * list validClasses().
     */
    WhatIfResult whatIf(const std::vector<WhatIfChange> &changes) const;

    /** Accepted --whatif classes: static tokens + recorded resources. */
    std::vector<std::string> validClasses() const;

    /** Attribution / slack / DAG summary as one JSON object. */
    void writeJson(std::ostream &os) const;

    /**
     * Mark the critical path on a Perfetto trace: one span per path
     * edge on the "causal" process (category "causal"), aligned with
     * the recorded simulated-time interval it waited through.
     */
    void overlayTrace(TraceSink &trace) const;

    /** Human-readable attribution summary (the --causal stdout). */
    void report(std::ostream &os, std::size_t top = 8) const;

  private:
    Tick edgeLatency(std::size_t node_index) const;

    const CausalRecorder &_rec;
    Tick _makespan = 0;
    Tick _origin = 0;
    std::vector<std::size_t> _path;  // root..final
    Tick _kindTicks[kWaitKindCount] = {};
    Tick _ctxTicks[kCausalCtxCount] = {};
    std::vector<Tick> _resourceTicks;   // path wait per resource id
    std::vector<std::uint64_t> _resourceEdges;
    std::vector<std::uint64_t> _kindEdges =
        std::vector<std::uint64_t>(kWaitKindCount, 0);
    std::vector<std::uint64_t> _ctxEdges =
        std::vector<std::uint64_t>(kCausalCtxCount, 0);
};

} // namespace mcdla

#endif // MCDLA_SIM_CAUSAL_HH
