/**
 * @file
 * CausalRecorder / CausalAnalysis implementation.
 */

#include "sim/causal.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/simcheck.hh"
#include "sim/text.hh"
#include "sim/trace.hh"

namespace mcdla
{

const char *
waitKindToken(WaitKind kind)
{
    switch (kind) {
      case WaitKind::Control: return "control";
      case WaitKind::Compute: return "compute";
      case WaitKind::Collective: return "collective_step";
      case WaitKind::ChanXfer: return "chan_xfer";
      case WaitKind::ChanQueue: return "chan_queue";
      case WaitKind::Wire: return "wire";
      case WaitKind::Dma: return "dma";
      case WaitKind::Sched: return "sched";
      case WaitKind::Batch: return "batch";
    }
    return "?";
}

const char *
causalCtxToken(CausalCtx ctx)
{
    switch (ctx) {
      case CausalCtx::None: return "main";
      case CausalCtx::Collective: return "collective";
      case CausalCtx::P2p: return "p2p";
      case CausalCtx::Dma: return "dma";
      case CausalCtx::Cluster: return "cluster";
      case CausalCtx::Serving: return "serving";
    }
    return "?";
}

// ---------------------------------------------------------------------
// CausalRecorder
// ---------------------------------------------------------------------

std::int64_t
CausalRecorder::noteSchedule(Tick now, const std::string &name,
                             bool weak)
{
    Node node;
    node.sched = _scope.hasOrigin ? _scope.sched : now;
    node.parent = _scope.hasOrigin ? _scope.parent : _current;
    node.weak = weak;
    if (_scope.hasKind)
        node.kind = _scope.kind;
    node.ctx = ctxFromRaw(currentCtxRaw());
    node.resource = _scope.resource;
    node.label = internLabel(name);
    _nodes.push_back(node);
    return static_cast<std::int64_t>(_nodes.size() - 1);
}

std::uint16_t
CausalRecorder::internResource(const std::string &name)
{
    if (_resourceNames.empty())
        _resourceNames.emplace_back();
    auto it = _resourceIds.find(name);
    if (it != _resourceIds.end())
        return it->second;
    if (_resourceNames.size() >= 65535)
        return 0; // Out of ids: degrade to "no resource".
    const auto id = static_cast<std::uint16_t>(_resourceNames.size());
    _resourceNames.push_back(name);
    _resourceIds.emplace(name, id);
    return id;
}

std::uint32_t
CausalRecorder::internLabel(const std::string &name)
{
    if (_labelNames.empty())
        _labelNames.emplace_back();
    auto it = _labelIds.find(name);
    if (it != _labelIds.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(_labelNames.size());
    _labelNames.push_back(name);
    _labelIds.emplace(name, id);
    return id;
}

const std::string &
CausalRecorder::resourceName(std::uint16_t id) const
{
    static const std::string empty;
    return id < _resourceNames.size() ? _resourceNames[id] : empty;
}

const std::string &
CausalRecorder::labelName(std::uint32_t id) const
{
    static const std::string empty;
    return id < _labelNames.size() ? _labelNames[id] : empty;
}

void
CausalRecorder::simcheckVerify() const
{
    std::uint64_t executed = 0;
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        const Node &node = _nodes[i];
        if (!node.executed)
            continue;
        ++executed;
        if (node.fire < node.sched)
            simcheck::fail("causal", node.fire,
                           "node %zu fired before it was scheduled",
                           i);
        if (node.parent < 0)
            continue;
        if (static_cast<std::size_t>(node.parent) >= i)
            simcheck::fail("causal", node.fire,
                           "node %zu has a parent (%lld) that was "
                           "scheduled after it",
                           i, static_cast<long long>(node.parent));
        const Node &parent =
            _nodes[static_cast<std::size_t>(node.parent)];
        if (!parent.executed)
            simcheck::fail("causal", node.fire,
                           "node %zu executed but its parent %lld "
                           "never did",
                           i, static_cast<long long>(node.parent));
        if (parent.fire != node.sched)
            simcheck::fail("causal", node.fire,
                           "node %zu was scheduled at tick %llu but "
                           "its parent fired at tick %llu",
                           i,
                           static_cast<unsigned long long>(node.sched),
                           static_cast<unsigned long long>(
                               parent.fire));
        if (parent.fire > node.fire)
            simcheck::fail("causal", node.fire,
                           "edge %lld -> %zu runs backwards in time",
                           static_cast<long long>(node.parent), i);
    }
    if (executed != _executed)
        simcheck::fail("causal", 0,
                       "node ledger drift: counted %llu executed, "
                       "recorded %llu",
                       static_cast<unsigned long long>(executed),
                       static_cast<unsigned long long>(_executed));
}

// ---------------------------------------------------------------------
// What-if spec parsing
// ---------------------------------------------------------------------

std::vector<WhatIfChange>
parseWhatIfSpec(const std::string &spec)
{
    std::vector<WhatIfChange> changes;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;
        WhatIfChange change;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
            change.cls = item;
        } else {
            change.cls = item.substr(0, colon);
            const std::string factor = item.substr(colon + 1);
            const std::optional<double> value = readNumber<double>(factor);
            if (!value)
                fatal("--whatif: bad factor '%s' in '%s' (want "
                      "class:factor with a finite factor, e.g. "
                      "compute:0.5)",
                      factor.c_str(), item.c_str());
            change.factor = *value;
            if (change.factor <= 0.0)
                fatal("--whatif: factor must be positive (got %g in "
                      "'%s')",
                      change.factor, item.c_str());
        }
        if (change.cls.empty())
            fatal("--whatif: empty class in '%s'", spec.c_str());
        changes.push_back(std::move(change));
    }
    if (changes.empty())
        fatal("--whatif: empty spec (want class:factor"
              "[,class:factor...])");
    return changes;
}

namespace
{

/** A --whatif class resolved against a recorded run. */
struct ResolvedClass
{
    enum class Mode
    {
        Kind,     ///< One WaitKind.
        Chan,     ///< ChanXfer or ChanQueue (channel occupancy).
        Ctx,      ///< A CausalCtx, excluding Wire edges.
        Resource, ///< One interned resource, excluding Wire edges.
    };
    Mode mode = Mode::Kind;
    WaitKind kind = WaitKind::Control;
    CausalCtx ctx = CausalCtx::None;
    std::uint16_t resource = 0;
    double factor = 1.0;

    bool
    matches(const CausalRecorder::Node &node) const
    {
        switch (mode) {
          case Mode::Kind:
            return node.kind == kind;
          case Mode::Chan:
            return node.kind == WaitKind::ChanXfer
                || node.kind == WaitKind::ChanQueue;
          case Mode::Ctx:
            return node.ctx == ctx && node.kind != WaitKind::Wire;
          case Mode::Resource:
            return node.resource == resource
                && node.kind != WaitKind::Wire;
        }
        return false;
    }
};

/** Kind/ctx tokens accepted as --whatif classes. */
const std::pair<const char *, WaitKind> kKindClasses[] = {
    {"compute", WaitKind::Compute}, {"wire", WaitKind::Wire},
    {"sched", WaitKind::Sched},     {"batch", WaitKind::Batch},
    {"control", WaitKind::Control},
};
const std::pair<const char *, CausalCtx> kCtxClasses[] = {
    {"collective", CausalCtx::Collective},
    {"p2p", CausalCtx::P2p},
    {"dma", CausalCtx::Dma},
    {"cluster", CausalCtx::Cluster},
    {"serving", CausalCtx::Serving},
};

bool
resolveClass(const CausalRecorder &rec, const WhatIfChange &change,
             ResolvedClass &out)
{
    out.factor = change.factor;
    if (change.cls == "chan") {
        out.mode = ResolvedClass::Mode::Chan;
        return true;
    }
    for (const auto &kc : kKindClasses) {
        if (change.cls == kc.first) {
            out.mode = ResolvedClass::Mode::Kind;
            out.kind = kc.second;
            return true;
        }
    }
    for (const auto &cc : kCtxClasses) {
        if (change.cls == cc.first) {
            out.mode = ResolvedClass::Mode::Ctx;
            out.ctx = cc.second;
            return true;
        }
    }
    const std::vector<std::string> &resources = rec.resourceNames();
    for (std::size_t i = 1; i < resources.size(); ++i) {
        if (resources[i] == change.cls) {
            out.mode = ResolvedClass::Mode::Resource;
            out.resource = static_cast<std::uint16_t>(i);
            return true;
        }
    }
    return false;
}

std::string
millis(Tick t)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  ticksToSeconds(t) * 1e3);
    return buf;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// CausalAnalysis
// ---------------------------------------------------------------------

CausalAnalysis::CausalAnalysis(const CausalRecorder &rec) : _rec(rec)
{
    if (simcheck::enabled())
        _rec.simcheckVerify();
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    _resourceTicks.assign(std::max<std::size_t>(
                              _rec.resourceNames().size(), 1),
                          0);
    _resourceEdges.assign(_resourceTicks.size(), 0);

    // The makespan-defining event: last executed non-weak node
    // (same-tick ties go to the later-scheduled one, matching FIFO
    // execution order).
    std::int64_t final_idx = -1;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const CausalRecorder::Node &node = nodes[i];
        if (!node.executed || node.weak)
            continue;
        if (final_idx < 0
            || node.fire
                >= nodes[static_cast<std::size_t>(final_idx)].fire)
            final_idx = static_cast<std::int64_t>(i);
    }
    if (final_idx < 0)
        return;
    _makespan = nodes[static_cast<std::size_t>(final_idx)].fire;

    for (std::int64_t idx = final_idx; idx >= 0;
         idx = nodes[static_cast<std::size_t>(idx)].parent)
        _path.push_back(static_cast<std::size_t>(idx));
    std::reverse(_path.begin(), _path.end());
    _origin = nodes[_path.front()].sched;

    for (const std::size_t idx : _path) {
        const CausalRecorder::Node &node = nodes[idx];
        const Tick lat = edgeLatency(idx);
        _kindTicks[static_cast<std::size_t>(node.kind)] += lat;
        ++_kindEdges[static_cast<std::size_t>(node.kind)];
        _ctxTicks[static_cast<std::size_t>(node.ctx)] += lat;
        ++_ctxEdges[static_cast<std::size_t>(node.ctx)];
        if (node.resource != 0
            && node.resource < _resourceTicks.size()) {
            _resourceTicks[node.resource] += lat;
            ++_resourceEdges[node.resource];
        }
    }
}

Tick
CausalAnalysis::edgeLatency(std::size_t node_index) const
{
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    const CausalRecorder::Node &node = nodes[node_index];
    if (node.parent < 0)
        return node.fire - node.sched;
    return node.fire
        - nodes[static_cast<std::size_t>(node.parent)].fire;
}

ResultSet
CausalAnalysis::criticalPathTable() const
{
    ResultSet table({"step", "tick_ms", "wait_ms", "kind",
                     "subsystem", "resource", "label"});
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    std::int64_t step = 0;
    if (_origin > 0) {
        table.addRow({step++, ticksToSeconds(_origin) * 1e3,
                      ticksToSeconds(_origin) * 1e3,
                      std::string("origin"), std::string("origin"),
                      std::string(), std::string()});
    }
    for (const std::size_t idx : _path) {
        const CausalRecorder::Node &node = nodes[idx];
        table.addRow({step++, ticksToSeconds(node.fire) * 1e3,
                      ticksToSeconds(edgeLatency(idx)) * 1e3,
                      std::string(waitKindToken(node.kind)),
                      std::string(causalCtxToken(node.ctx)),
                      _rec.resourceName(node.resource),
                      _rec.labelName(node.label)});
    }
    return table;
}

ResultSet
CausalAnalysis::attributionTable() const
{
    ResultSet table({"group", "class", "wait_ms", "share", "edges"});
    const double total = _makespan > 0
        ? static_cast<double>(_makespan)
        : 1.0;
    auto add = [&](const char *group, const std::string &cls,
                   Tick ticks, std::uint64_t edges) {
        table.addRow({std::string(group), cls,
                      ticksToSeconds(ticks) * 1e3,
                      static_cast<double>(ticks) / total,
                      static_cast<std::int64_t>(edges)});
    };
    for (std::size_t k = 0; k < kWaitKindCount; ++k)
        if (_kindEdges[k] > 0)
            add("kind", waitKindToken(static_cast<WaitKind>(k)),
                _kindTicks[k], _kindEdges[k]);
    if (_origin > 0)
        add("kind", "origin", _origin, 0);
    for (std::size_t c = 0; c < kCausalCtxCount; ++c)
        if (_ctxEdges[c] > 0)
            add("subsystem", causalCtxToken(static_cast<CausalCtx>(c)),
                _ctxTicks[c], _ctxEdges[c]);
    if (_origin > 0)
        add("subsystem", "origin", _origin, 0);
    // Resources sorted by descending path wait (ties: by name) so the
    // bottleneck link/device leads.
    std::vector<std::size_t> order;
    for (std::size_t r = 1; r < _resourceTicks.size(); ++r)
        if (_resourceEdges[r] > 0)
            order.push_back(r);
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  if (_resourceTicks[a] != _resourceTicks[b])
                      return _resourceTicks[a] > _resourceTicks[b];
                  return _rec.resourceName(static_cast<std::uint16_t>(
                             a))
                      < _rec.resourceName(
                          static_cast<std::uint16_t>(b));
              });
    for (const std::size_t r : order)
        add("resource",
            _rec.resourceName(static_cast<std::uint16_t>(r)),
            _resourceTicks[r], _resourceEdges[r]);
    return table;
}

ResultSet
CausalAnalysis::slackTable() const
{
    // Backward pass: latest(n) = min over executed non-weak children
    // of latest(child) - edge latency; nodes nothing waits on can
    // slip to the makespan. Children always carry higher indices than
    // their parent (they were scheduled during its execution), so one
    // reverse sweep relaxes every edge.
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    std::vector<Tick> latest(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        latest[i] = std::max(_makespan, nodes[i].fire);
    for (std::size_t i = nodes.size(); i-- > 0;) {
        const CausalRecorder::Node &node = nodes[i];
        if (!node.executed || node.weak || node.parent < 0)
            continue;
        const auto p = static_cast<std::size_t>(node.parent);
        const Tick lat = node.fire - nodes[p].fire;
        latest[p] = std::min(latest[p], latest[i] - lat);
    }

    // Channel events grouped by resource; slack in microseconds.
    std::vector<std::vector<double>> by_resource(
        _rec.resourceNames().size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const CausalRecorder::Node &node = nodes[i];
        if (!node.executed || node.resource == 0)
            continue;
        if (node.kind != WaitKind::ChanXfer
            && node.kind != WaitKind::ChanQueue
            && node.kind != WaitKind::Wire)
            continue;
        if (node.resource >= by_resource.size())
            continue;
        by_resource[node.resource].push_back(
            ticksToUs(latest[i] - node.fire));
    }

    ResultSet table({"resource", "edges", "min_slack_us",
                     "p50_slack_us", "mean_slack_us", "max_slack_us",
                     "le_1us", "le_10us", "le_100us", "le_1ms",
                     "gt_1ms"});
    for (std::size_t r = 1; r < by_resource.size(); ++r) {
        const std::vector<double> &slacks = by_resource[r];
        if (slacks.empty())
            continue;
        double min_us = slacks[0];
        double max_us = slacks[0];
        double sum_us = 0.0;
        std::int64_t buckets[5] = {};
        for (const double s : slacks) {
            min_us = std::min(min_us, s);
            max_us = std::max(max_us, s);
            sum_us += s;
            const int bucket = s <= 1.0 ? 0
                : s <= 10.0              ? 1
                : s <= 100.0             ? 2
                : s <= 1000.0            ? 3
                                         : 4;
            ++buckets[bucket];
        }
        table.addRow(
            {_rec.resourceName(static_cast<std::uint16_t>(r)),
             static_cast<std::int64_t>(slacks.size()), min_us,
             percentile(slacks, 50.0),
             sum_us / static_cast<double>(slacks.size()), max_us,
             buckets[0], buckets[1], buckets[2], buckets[3],
             buckets[4]});
    }
    return table;
}

WhatIfResult
CausalAnalysis::whatIf(
    const std::vector<WhatIfChange> &changes) const
{
    std::vector<ResolvedClass> resolved;
    resolved.reserve(changes.size());
    for (const WhatIfChange &change : changes) {
        ResolvedClass rc;
        if (!resolveClass(_rec, change, rc)) {
            std::string valid;
            for (const std::string &cls : validClasses()) {
                if (!valid.empty())
                    valid += ", ";
                valid += cls;
            }
            fatal("--whatif: unknown resource class '%s'; valid "
                  "classes: %s",
                  change.cls.c_str(), valid.c_str());
        }
        resolved.push_back(rc);
    }

    // Forward replay in scheduling order: a parent is always
    // scheduled (and indexed) before any of its children, so one
    // pass computes every node's shifted completion time.
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    std::vector<double> shifted(nodes.size(), 0.0);
    WhatIfResult result;
    result.baseline = _makespan;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const CausalRecorder::Node &node = nodes[i];
        if (!node.executed)
            continue;
        double factor = 1.0;
        for (const ResolvedClass &rc : resolved)
            if (rc.matches(node))
                factor *= rc.factor;
        const Tick lat = edgeLatency(i);
        if (factor != 1.0 && lat > 0)
            ++result.scaledEdges;
        const double base = node.parent >= 0
            ? shifted[static_cast<std::size_t>(node.parent)]
            : static_cast<double>(node.sched);
        shifted[i] = base + factor * static_cast<double>(lat);
        if (!node.weak)
            result.predicted = std::max(result.predicted, shifted[i]);
    }
    return result;
}

std::vector<std::string>
CausalAnalysis::validClasses() const
{
    std::vector<std::string> classes = {"chan"};
    for (const auto &kc : kKindClasses)
        classes.emplace_back(kc.first);
    for (const auto &cc : kCtxClasses)
        classes.emplace_back(cc.first);
    const std::vector<std::string> &resources = _rec.resourceNames();
    for (std::size_t i = 1; i < resources.size(); ++i)
        classes.push_back(resources[i]);
    return classes;
}

void
CausalAnalysis::writeJson(std::ostream &os) const
{
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    std::uint64_t roots = 0;
    std::uint64_t edges = 0;
    for (const CausalRecorder::Node &node : nodes) {
        if (!node.executed)
            continue;
        if (node.parent < 0)
            ++roots;
        else
            ++edges;
    }
    const double total = _makespan > 0
        ? static_cast<double>(_makespan)
        : 1.0;

    os << "{\n  \"makespan_ms\": ";
    jsonNumber(os, ticksToSeconds(_makespan) * 1e3);
    os << ",\n  \"nodes\": " << nodes.size()
       << ",\n  \"executed\": " << _rec.executedCount()
       << ",\n  \"roots\": " << roots << ",\n  \"edges\": " << edges
       << ",\n  \"critical_path\": {\"edges\": " << _path.size()
       << ", \"origin_ms\": ";
    jsonNumber(os, ticksToSeconds(_origin) * 1e3);
    os << "},\n  \"attribution\": {";

    auto emit_group = [&](const char *name, auto &&rows) {
        os << "\n    \"" << name << "\": [";
        bool first = true;
        for (const auto &row : rows) {
            os << (first ? "" : ", ") << "{\"class\": ";
            jsonString(os, row.first);
            os << ", \"wait_ms\": ";
            jsonNumber(os, ticksToSeconds(row.second) * 1e3);
            os << ", \"share\": ";
            jsonNumber(os, static_cast<double>(row.second) / total);
            os << "}";
            first = false;
        }
        os << "]";
    };

    std::vector<std::pair<std::string, Tick>> kind_rows;
    for (std::size_t k = 0; k < kWaitKindCount; ++k)
        if (_kindEdges[k] > 0)
            kind_rows.emplace_back(
                waitKindToken(static_cast<WaitKind>(k)),
                _kindTicks[k]);
    std::vector<std::pair<std::string, Tick>> ctx_rows;
    for (std::size_t c = 0; c < kCausalCtxCount; ++c)
        if (_ctxEdges[c] > 0)
            ctx_rows.emplace_back(
                causalCtxToken(static_cast<CausalCtx>(c)),
                _ctxTicks[c]);
    if (_origin > 0) {
        kind_rows.emplace_back("origin", _origin);
        ctx_rows.emplace_back("origin", _origin);
    }
    std::vector<std::pair<std::string, Tick>> res_rows;
    for (std::size_t r = 1; r < _resourceTicks.size(); ++r)
        if (_resourceEdges[r] > 0)
            res_rows.emplace_back(
                _rec.resourceName(static_cast<std::uint16_t>(r)),
                _resourceTicks[r]);
    std::sort(res_rows.begin(), res_rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });

    emit_group("kind", kind_rows);
    os << ",";
    emit_group("subsystem", ctx_rows);
    os << ",";
    emit_group("resource", res_rows);
    os << "\n  }\n}\n";
}

void
CausalAnalysis::overlayTrace(TraceSink &trace) const
{
    const std::vector<CausalRecorder::Node> &nodes = _rec.nodes();
    for (const std::size_t idx : _path) {
        const CausalRecorder::Node &node = nodes[idx];
        const Tick lat = edgeLatency(idx);
        if (lat == 0)
            continue; // Zero-latency glue would only add clutter.
        const Tick start = node.fire - lat;
        std::string name = waitKindToken(node.kind);
        const std::string &resource =
            _rec.resourceName(node.resource);
        if (!resource.empty())
            name += " " + resource;
        else
            name += " " + _rec.labelName(node.label);
        trace.addSpan("causal", "critical path", name, start, lat,
                      "causal");
    }
}

void
CausalAnalysis::report(std::ostream &os, std::size_t top) const
{
    os << "causal: makespan " << millis(_makespan) << " ms over "
       << _path.size() << " critical-path edges ("
       << _rec.nodes().size() << " events recorded)\n";
    struct Row
    {
        std::string cls;
        Tick ticks;
    };
    auto print_group = [&](const char *name, std::vector<Row> rows) {
        std::sort(rows.begin(), rows.end(),
                  [](const Row &a, const Row &b) {
                      if (a.ticks != b.ticks)
                          return a.ticks > b.ticks;
                      return a.cls < b.cls;
                  });
        os << "  by " << name << ":";
        std::size_t shown = 0;
        for (const Row &row : rows) {
            if (shown++ == top)
                break;
            const double share = _makespan > 0
                ? 100.0 * static_cast<double>(row.ticks)
                    / static_cast<double>(_makespan)
                : 0.0;
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%.1f", share);
            os << " " << row.cls << " " << millis(row.ticks) << "ms ("
               << buf << "%)";
        }
        os << '\n';
    };
    std::vector<Row> kind_rows;
    for (std::size_t k = 0; k < kWaitKindCount; ++k)
        if (_kindEdges[k] > 0)
            kind_rows.push_back(
                {waitKindToken(static_cast<WaitKind>(k)),
                 _kindTicks[k]});
    if (_origin > 0)
        kind_rows.push_back({"origin", _origin});
    print_group("kind", std::move(kind_rows));
    std::vector<Row> ctx_rows;
    for (std::size_t c = 0; c < kCausalCtxCount; ++c)
        if (_ctxEdges[c] > 0)
            ctx_rows.push_back(
                {causalCtxToken(static_cast<CausalCtx>(c)),
                 _ctxTicks[c]});
    if (_origin > 0)
        ctx_rows.push_back({"origin", _origin});
    print_group("subsystem", std::move(ctx_rows));
    std::vector<Row> res_rows;
    for (std::size_t r = 1; r < _resourceTicks.size(); ++r)
        if (_resourceEdges[r] > 0)
            res_rows.push_back(
                {_rec.resourceName(static_cast<std::uint16_t>(r)),
                 _resourceTicks[r]});
    if (!res_rows.empty())
        print_group("resource", std::move(res_rows));
}

} // namespace mcdla
