/**
 * @file
 * TraceSink / MetricRegistry / DesProfiler / weak-event unit tests,
 * plus the observer set attached to whole cluster and serving runs.
 *
 * The TraceSink tests round-trip the emitted Chrome-tracing JSON
 * through a strict recursive-descent parser (no tolerance for bare
 * control characters, trailing commas, or unquoted keys), so every
 * escaping bug is a test failure here before it is a blank Perfetto
 * tab for a user.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "core/report.hh"
#include "serving/serving.hh"
#include "sim/causal.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/profiler.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

using namespace mcdla;

namespace
{

// ------------------------------------------ strict JSON parser (test)

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }

    bool has(const std::string &key) const
    {
        return fields.find(key) != fields.end();
    }
};

class StrictJsonParser
{
  public:
    explicit StrictJsonParser(const std::string &text) : _text(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _text.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at offset "
                                 + std::to_string(_pos) + ": " + why);
    }

    void
    skipWs()
    {
        while (_pos < _text.size()
               && (_text[_pos] == ' ' || _text[_pos] == '\n'
                   || _text[_pos] == '\r' || _text[_pos] == '\t'))
            ++_pos;
    }

    char
    peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::String;
            v.text = parseString();
            return v;
        }
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n') {
            expectWord("null");
            return JsonValue{};
        }
        return parseNumber();
    }

    void
    expectWord(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (_pos >= _text.size() || _text[_pos] != *p)
                fail(std::string("expected ") + word);
            ++_pos;
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (peek() == 't') {
            expectWord("true");
            v.boolean = true;
        } else {
            expectWord("false");
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (_pos < _text.size()
               && (std::isdigit(static_cast<unsigned char>(_text[_pos]))
                   != 0
                   || _text[_pos] == '.' || _text[_pos] == 'e'
                   || _text[_pos] == 'E' || _text[_pos] == '+'
                   || _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            fail("bad number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(_text.substr(start, _pos - start));
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                fail("unterminated string");
            const char c = _text[_pos];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("bare control character in string");
            ++_pos;
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = peek();
            ++_pos;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    fail("bad \\u escape");
                const std::string hex = _text.substr(_pos, 4);
                _pos += 4;
                const int code = std::stoi(hex, nullptr, 16);
                if (code > 0xff)
                    out += '?'; // non-Latin escapes: presence suffices
                else
                    out += static_cast<char>(code);
                break;
              }
              default: fail("bad escape");
            }
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Array;
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.fields.emplace(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

JsonValue
parseTrace(const TraceSink &trace)
{
    std::ostringstream os;
    trace.write(os);
    const std::string text = os.str();
    StrictJsonParser parser(text);
    return parser.parse();
}

/** The "process/track" names of every span ("X") in @p trace. */
std::set<std::string>
spanTracks(const TraceSink &trace)
{
    const JsonValue root = parseTrace(trace);
    std::map<double, std::string> procs;
    std::map<std::pair<double, double>, std::string> tracks;
    for (const JsonValue &event : root.at("traceEvents").items) {
        if (event.at("ph").text != "M")
            continue;
        if (event.at("name").text == "process_name")
            procs[event.at("pid").number] =
                event.at("args").at("name").text;
        else if (event.at("name").text == "thread_name")
            tracks[{event.at("pid").number, event.at("tid").number}] =
                event.at("args").at("name").text;
    }
    std::set<std::string> out;
    for (const JsonValue &event : root.at("traceEvents").items) {
        if (event.at("ph").text != "X")
            continue;
        const double pid = event.at("pid").number;
        out.insert(procs[pid] + "/"
                   + tracks[{pid, event.at("tid").number}]);
    }
    return out;
}

/** One of every observer, and the set that points at them. */
struct AllObservers
{
    TraceSink trace;
    MetricRegistry metrics;
    DesProfiler profiler;
    CausalRecorder causal;

    ObserverSet set() { return {&trace, &metrics, &profiler, &causal}; }

    /** Whether every observer saw the run. */
    void
    expectFed() const
    {
        EXPECT_GT(trace.eventCount(), 0u);
        EXPECT_GT(metrics.sampleCount(), 0u);
        EXPECT_GT(profiler.eventsExecuted(), 0u);
        EXPECT_GT(causal.scheduled(), 0u);
    }
};

// ------------------------------------------------------- TraceSink

TEST(TraceSink, AdversarialLabelsRoundTrip)
{
    const std::vector<std::string> evil = {
        "quote\"inside",
        "back\\slash",
        "new\nline and\ttab",
        std::string("nul\x01mid"),
        "utf8 \xc3\xa9\xe6\xbc\xa2",
        "curly {braces} and [brackets], \"quoted\"",
    };
    TraceSink trace;
    Tick at = 0;
    for (const std::string &label : evil) {
        trace.addSpan(label, label, label, at, 100);
        trace.addInstant("proc\"x", label, label, at + 50);
        at += 1000;
    }

    const JsonValue root = parseTrace(trace);
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Array);

    // Control chars below 0x20 decode back to themselves via \u00XX,
    // so every original label must survive the round-trip verbatim.
    std::set<std::string> names;
    for (const JsonValue &event : events.items)
        names.insert(event.at("name").text);
    for (const std::string &label : evil)
        EXPECT_TRUE(names.count(label) == 1)
            << "label lost in round-trip: " << label;
}

TEST(TraceSink, FlowEventsPairAndCoincideWithSpans)
{
    TraceSink trace;
    trace.addSpan("p", "t", "producer", 100, 50);
    trace.addSpan("p", "t", "consumer", 400, 50);
    const std::uint64_t flow = trace.newFlow();
    trace.flowBegin("p", "t", "link", 100, flow);
    trace.flowEnd("p", "t", "link", 400, flow);

    const JsonValue root = parseTrace(trace);
    std::map<double, double> begins; // id -> ts
    std::map<double, double> ends;
    for (const JsonValue &event : root.at("traceEvents").items) {
        const std::string &ph = event.at("ph").text;
        if (ph == "s")
            begins[event.at("id").number] = event.at("ts").number;
        else if (ph == "f") {
            ends[event.at("id").number] = event.at("ts").number;
            // Perfetto requires bp:"e" on flow ends bound to slices.
            EXPECT_EQ(event.at("bp").text, "e");
        }
    }
    ASSERT_EQ(begins.size(), 1u);
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(begins.begin()->first, ends.begin()->first);
    EXPECT_LT(begins.begin()->second, ends.begin()->second);
}

TEST(TraceSink, CounterSeriesKeepsOrderAndValues)
{
    TraceSink trace;
    const double values[] = {0.0, 1.5, 1.5, 3.25, 7.0};
    Tick at = 0;
    for (double v : values) {
        trace.addCounter("metrics", "queue_depth", at, v);
        at += 100 * ticksPerUs;
    }

    const JsonValue root = parseTrace(trace);
    std::vector<std::pair<double, double>> series;
    for (const JsonValue &event : root.at("traceEvents").items) {
        if (event.at("ph").text != "C")
            continue;
        EXPECT_EQ(event.at("name").text, "queue_depth");
        series.emplace_back(event.at("ts").number,
                            event.at("args").at("value").number);
    }
    ASSERT_EQ(series.size(), 5u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GT(series[i].first, series[i - 1].first)
            << "counter timestamps must increase";
    for (std::size_t i = 0; i < series.size(); ++i)
        EXPECT_DOUBLE_EQ(series[i].second, values[i]);
}

TEST(TraceSink, DeterministicPidAndTrackAssignment)
{
    auto emit = [](TraceSink &trace) {
        trace.addSpan("device", "dev0.compute", "conv1", 0, 10);
        trace.addSpan("vmem", "dev0.dma", "offload", 5, 10);
        trace.addCounter("metrics", "util", 0, 0.5);
        trace.addSpan("collective", "rings", "allreduce", 20, 10);
        trace.addInstant("cluster", "jobs", "arrive", 1);
    };
    TraceSink a, b;
    emit(a);
    emit(b);
    std::ostringstream sa, sb;
    a.write(sa);
    b.write(sb);
    EXPECT_EQ(sa.str(), sb.str())
        << "identical event sequences must serialize identically";

    // Metadata must name every process exactly once.
    const JsonValue root = parseTrace(a);
    std::set<std::string> procs;
    std::set<double> pids;
    for (const JsonValue &event : root.at("traceEvents").items) {
        pids.insert(event.at("pid").number);
        if (event.at("ph").text == "M"
            && event.at("name").text == "process_name") {
            EXPECT_TRUE(
                procs.insert(event.at("args").at("name").text).second);
        }
    }
    EXPECT_EQ(procs.size(), 5u);
    EXPECT_EQ(pids.size(), 5u);
    EXPECT_EQ(a.processCount(), 5u);
}

TEST(TraceSink, CategoryFilterDropsDisabledEvents)
{
    TraceSink trace;
    trace.enableCategories({"dma"});
    EXPECT_TRUE(trace.categoryEnabled("dma"));
    EXPECT_FALSE(trace.categoryEnabled("op"));
    trace.addSpan("device", "dev0.compute", "conv1", 0, 10, "op");
    trace.addSpan("vmem", "dev0.dma", "offload", 0, 10, "dma");
    const JsonValue root = parseTrace(trace);
    std::size_t spans = 0;
    for (const JsonValue &event : root.at("traceEvents").items)
        if (event.at("ph").text == "X") {
            ++spans;
            EXPECT_EQ(event.at("cat").text, "dma");
        }
    EXPECT_EQ(spans, 1u);
}

TEST(TraceSink, LegacyTwoStringOverloadsLandOnSimProcess)
{
    TraceSink trace;
    trace.addSpan("dev0.compute", "conv1", 0, 10);
    trace.addInstant("dev0.compute", "mark", 5);
    const JsonValue root = parseTrace(trace);
    bool found = false;
    for (const JsonValue &event : root.at("traceEvents").items)
        if (event.at("ph").text == "M"
            && event.at("name").text == "process_name"
            && event.at("args").at("name").text == "sim")
            found = true;
    EXPECT_TRUE(found);
    EXPECT_EQ(trace.eventCount(), 2u);
}

// ------------------------------------------------------ weak events

TEST(EventQueue, WeakEventsDoNotExtendTheRun)
{
    EventQueue eq;
    int real = 0;
    int weak = 0;
    eq.schedule(100, [&] { ++real; }, "real");
    // A self-rescheduling weak chain: must be discarded the moment
    // only weak events remain, without executing or advancing now().
    std::function<void()> tick = [&] {
        ++weak;
        eq.scheduleWeak(eq.now() + 30, tick, "weak_tick");
    };
    eq.scheduleWeak(30, tick, "weak_tick");
    eq.run();
    EXPECT_EQ(real, 1);
    EXPECT_EQ(weak, 3); // ticks 30, 60, 90 run; 120 is discarded
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, WeakOnlyQueueDrainsImmediately)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleWeak(50, [&] { ++fired; }, "weak");
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 0u);
}

// ---------------------------------------------------- MetricRegistry

TEST(MetricRegistry, SamplesPeriodicallyAndStopsWithTheRun)
{
    EventQueue eq;
    MetricRegistry metrics(100 * ticksPerUs);
    int gauge = 0;
    metrics.add("gauge", [&] { return static_cast<double>(gauge); });
    eq.schedule(350 * ticksPerUs, [&] { gauge = 7; }, "bump");
    metrics.start(eq);
    eq.run();
    // Samples at t=0, 100, 200, 300 us; the t=400 weak sample is
    // discarded because only it remained after the last real event.
    ASSERT_EQ(metrics.sampleCount(), 4u);
    EXPECT_EQ(eq.now(), 350 * ticksPerUs);
    EXPECT_DOUBLE_EQ(metrics.samples().back().values[0], 0.0);

    const ResultSet table = metricsTable(metrics);
    EXPECT_EQ(table.rowCount(), 4u);
    EXPECT_EQ(table.columns().size(), 2u);
    EXPECT_EQ(table.columns()[1], "gauge");
}

TEST(MetricRegistry, MirrorsSamplesAsTraceCounters)
{
    EventQueue eq;
    TraceSink trace;
    MetricRegistry metrics(100 * ticksPerUs);
    metrics.add("depth", [&eq] {
        return static_cast<double>(eq.pendingCount());
    });
    metrics.attachTrace(&trace);
    eq.schedule(250 * ticksPerUs, [] {}, "real");
    metrics.start(eq);
    eq.run();
    const JsonValue root = parseTrace(trace);
    std::size_t counters = 0;
    for (const JsonValue &event : root.at("traceEvents").items)
        if (event.at("ph").text == "C")
            ++counters;
    EXPECT_EQ(counters, metrics.sampleCount());
    EXPECT_GE(counters, 3u);
}

// ------------------------------------------------------- DesProfiler

TEST(DesProfiler, AttributesWallTimeByLabel)
{
    // The kernel counts are exact and the same on both backends; the
    // descheduled key stays pending (a tombstone) until it is popped,
    // so it counts towards the peak depth.
    for (EventQueueBackendKind kind :
         {EventQueueBackendKind::Heap, EventQueueBackendKind::Calendar}) {
        SCOPED_TRACE(eventQueueBackendToken(kind));
        EventQueue eq(kind);
        DesProfiler profiler;
        eq.setProfiler(&profiler);
        for (int i = 0; i < 10; ++i)
            eq.schedule(static_cast<Tick>(i), [] {}, "tick");
        const EventId cancelled = eq.schedule(99, [] {}, "doomed");
        eq.deschedule(cancelled);
        eq.run();

        EXPECT_EQ(profiler.eventsExecuted(), 10u);
        EXPECT_EQ(profiler.schedules(), 11u);
        EXPECT_EQ(profiler.deschedules(), 1u);
        EXPECT_EQ(profiler.peakHeapDepth(), 11u);
        ASSERT_EQ(profiler.labels().count("tick"), 1u);
        EXPECT_EQ(profiler.labels().at("tick").count, 10u);
        EXPECT_EQ(profiler.labels().count("doomed"), 0u);

        const auto top = profiler.topLabels(1);
        ASSERT_EQ(top.size(), 1u);
        EXPECT_EQ(top[0].first, "tick");

        std::ostringstream report;
        profiler.report(report);
        EXPECT_NE(report.str().find("events executed"),
                  std::string::npos);
        EXPECT_NE(report.str().find("tick"), std::string::npos);
    }
}

// ------------------------------------------------------- json escape

TEST(JsonEscape, EscapesEverythingStrictJsonRejects)
{
    EXPECT_EQ(jsonEscaped("plain"), "plain");
    EXPECT_EQ(jsonEscaped("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscaped("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscaped(std::string("a\x01") + "b"), "a\\u0001b");
    std::ostringstream os;
    jsonNumber(os, 1.5);
    os << ' ';
    jsonNumber(os, std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(os.str(), "1.5 null");
}

} // namespace

// ---------------------------------------- observers on a whole run

TEST(ObserverSet, ClusterOutcomesAreUnchangedByObservers)
{
    auto run = [](const ObserverSet &observers) {
        ClusterConfig cfg;
        static_cast<ObserverSet &>(cfg) = observers;
        cfg.base.design = SystemDesign::McDlaB;
        cfg.base.seed = 5;
        cfg.scheduler = SchedulerKind::Backfill;
        Random rng(5);
        return Cluster(cfg, synthesizeJobs(4, 60.0, 8, rng)).run();
    };
    AllObservers all;
    const ClusterReport bare = run({});
    const ClusterReport observed = run(all.set());
    all.expectFed();

    EXPECT_EQ(bare.makespanSec, observed.makespanSec);
    ASSERT_EQ(bare.jobs.size(), observed.jobs.size());
    for (std::size_t i = 0; i < bare.jobs.size(); ++i) {
        const JobOutcome &a = bare.jobs[i];
        const JobOutcome &b = observed.jobs[i];
        EXPECT_EQ(a.completed, b.completed) << a.spec.name;
        EXPECT_EQ(a.rejected, b.rejected) << a.spec.name;
        EXPECT_EQ(a.devices, b.devices) << a.spec.name;
        EXPECT_EQ(a.startSec, b.startSec) << a.spec.name;
        EXPECT_EQ(a.finishSec, b.finishSec) << a.spec.name;
    }
    EXPECT_EQ(bare.completedJobs(), bare.jobs.size());
}

TEST(ObserverSet, ServingOutcomesAreUnchangedAndColocatedJobIsTraced)
{
    auto run = [](const ObserverSet &observers) {
        ServingConfig cfg;
        static_cast<ObserverSet &>(cfg) = observers;
        cfg.base.design = SystemDesign::McDlaB;
        cfg.base.workload = "AlexNet";
        cfg.base.serve = true;
        cfg.base.replicas = 2;
        cfg.base.globalBatch = 8;
        JobSpec job;
        job.name = "train";
        job.workload = "AlexNet";
        job.batch = 64;
        job.devices = 4;
        job.iterations = 2;
        cfg.trainingJobs = {job};
        Random rng(2);
        return ServingCluster(cfg, synthesizeRequests(
                                       16, 400.0, ArrivalKind::Poisson,
                                       rng))
            .run();
    };
    AllObservers all;
    const ServingReport bare = run({});
    const ServingReport observed = run(all.set());
    all.expectFed();

    EXPECT_EQ(bare.makespanSec, observed.makespanSec);
    ASSERT_EQ(bare.requests.size(), observed.requests.size());
    for (std::size_t i = 0; i < bare.requests.size(); ++i) {
        const RequestOutcome &a = bare.requests[i];
        const RequestOutcome &b = observed.requests[i];
        EXPECT_EQ(a.completed, b.completed) << i;
        EXPECT_EQ(a.replica, b.replica) << i;
        EXPECT_EQ(a.dispatchSec, b.dispatchSec) << i;
        EXPECT_EQ(a.doneSec, b.doneSec) << i;
    }
    ASSERT_EQ(bare.trainingJobs.size(), 1u);
    ASSERT_EQ(observed.trainingJobs.size(), 1u);
    EXPECT_TRUE(bare.trainingJobs[0].completed);
    EXPECT_EQ(bare.trainingJobs[0].devices,
              observed.trainingJobs[0].devices);
    EXPECT_EQ(bare.trainingJobs[0].finishSec,
              observed.trainingJobs[0].finishSec);

    // The job's session is built mid-run, after the observers were
    // attached, and still finds the sink: its first device (2, the
    // first one the replicas leave free) has compute spans.
    const std::set<std::string> tracks = spanTracks(all.trace);
    EXPECT_EQ(bare.trainingJobs[0].devices.front(), 2);
    EXPECT_TRUE(tracks.count("device/dev2.compute"));
    EXPECT_TRUE(tracks.count("device/dev0.compute"));
    EXPECT_TRUE(tracks.count("cluster/job0 train"));
}
