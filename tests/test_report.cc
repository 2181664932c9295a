/**
 * @file
 * Unit tests for the reporting backends (CSV/JSON result sets, Chrome
 * tracing), the option parser, and iteration trace emission.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/mcdla.hh"
#include "core/options.hh"
#include "core/report.hh"

namespace mcdla
{
namespace
{

// -------------------------------------------------------------- results

TEST(ResultSet, CsvRoundTrip)
{
    ResultSet rs({"name", "value", "count"});
    rs.addRow({std::string("plain"), 1.5, std::int64_t{42}});
    rs.addRow({std::string("needs,quoting"), 2.0, std::int64_t{7}});
    std::ostringstream os;
    rs.writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("name,value,count\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,1.5,42"), std::string::npos);
    EXPECT_NE(csv.find("\"needs,quoting\""), std::string::npos);
}

TEST(ResultSet, CsvEscapesEmbeddedQuotes)
{
    ResultSet rs({"a"});
    rs.addRow({std::string("say \"hi\"")});
    std::ostringstream os;
    rs.writeCsv(os);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(ResultSet, JsonIsWellFormedEnough)
{
    ResultSet rs({"k", "v"});
    rs.addRow({std::string("x"), std::int64_t{1}});
    rs.addRow({std::string("y\"z"), 2.5});
    std::ostringstream os;
    rs.writeJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("{\"k\": \"x\", \"v\": 1}"), std::string::npos);
    EXPECT_NE(json.find("y\\\"z"), std::string::npos);
}

TEST(ResultSet, CsvQuotesNewlinesAndCarriageReturns)
{
    // RFC 4180: line breaks inside a field force quoting; the field is
    // emitted verbatim inside the quotes.
    ResultSet rs({"a", "b"});
    rs.addRow({std::string("line1\nline2"), std::string("cr\rhere")});
    std::ostringstream os;
    rs.writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("\"line1\nline2\""), std::string::npos);
    EXPECT_NE(csv.find("\"cr\rhere\""), std::string::npos);
}

TEST(ResultSet, CsvQuoteCommaNewlineCombined)
{
    ResultSet rs({"a"});
    rs.addRow({std::string("say \"hi\",\nbye")});
    std::ostringstream os;
    rs.writeCsv(os);
    // Quotes doubled, the rest verbatim, all inside one quoted field.
    EXPECT_NE(os.str().find("\"say \"\"hi\"\",\nbye\""),
              std::string::npos);
}

TEST(ResultSet, JsonEscapesControlCharacters)
{
    ResultSet rs({"k"});
    rs.addRow({std::string("tab\there\rcr\x01raw")});
    std::ostringstream os;
    rs.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("tab\\there\\rcr\\u0001raw"),
              std::string::npos);
    // No raw control bytes survive in the output.
    for (char c : json)
        EXPECT_TRUE(c == '\n'
                    || static_cast<unsigned char>(c) >= 0x20)
            << static_cast<int>(c);
}

TEST(ResultSet, JsonEmitsNullForNanAndInf)
{
    // JSON has no NaN/Infinity literals (RFC 8259); they become null.
    ResultSet rs({"a", "b", "c", "d"});
    rs.addRow({std::nan(""), HUGE_VAL, -HUGE_VAL, 2.5});
    std::ostringstream os;
    rs.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"a\": null"), std::string::npos);
    EXPECT_NE(json.find("\"b\": null"), std::string::npos);
    EXPECT_NE(json.find("\"c\": null"), std::string::npos);
    EXPECT_NE(json.find("\"d\": 2.5"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ResultSet, CellAccess)
{
    ResultSet rs({"a", "b"});
    rs.addRow({std::int64_t{1}, std::int64_t{2}});
    EXPECT_EQ(std::get<std::int64_t>(rs.cell(0, 1)), 2);
    EXPECT_EQ(rs.rowCount(), 1u);
}

// --------------------------------------------------------------- tracing

TEST(TraceSink, EmitsChromeTracingJson)
{
    TraceSink sink;
    sink.addSpan("dev0.compute", "fwd conv1", 1000 * ticksPerUs,
                 500 * ticksPerUs);
    sink.addInstant("collectives", "barrier", 2000 * ticksPerUs);
    std::ostringstream os;
    sink.write(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("fwd conv1"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":500"), std::string::npos);
    EXPECT_EQ(sink.eventCount(), 2u);
    sink.clear();
    EXPECT_TRUE(sink.empty());
}

TEST(TraceSink, TrainingSessionEmitsSpans)
{
    const Network net = buildBenchmark("AlexNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            128);
    TraceSink sink;
    eq.setTrace(&sink);
    session.run();
    EXPECT_GT(sink.eventCount(), 20u);
    std::ostringstream os;
    sink.write(os);
    EXPECT_NE(os.str().find("dev0.compute"), std::string::npos);
    EXPECT_NE(os.str().find("dev0.dma"), std::string::npos);
    EXPECT_NE(os.str().find("collectives"), std::string::npos);
}

TEST(SystemStats, DumpCoversComponents)
{
    const Network net = buildBenchmark("AlexNet");
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::DcDla;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            128);
    session.run();
    std::ostringstream os;
    dumpSystemStats(system, session, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("dev0.compute_busy_ticks"), std::string::npos);
    EXPECT_NE(text.find("dev0.dma.bytes_offloaded"),
              std::string::npos);
    EXPECT_NE(text.find(".nccl.ops"), std::string::npos);
    EXPECT_NE(text.find("socket0.dram"), std::string::npos);
}

// --------------------------------------------------------------- options

OptionParser
makeParser()
{
    OptionParser opts("tool", "test tool");
    opts.addString("name", "default", "a string");
    opts.addInt("count", 3, "an int");
    opts.addDouble("ratio", 1.5, "a double");
    opts.addFlag("verbose", "a flag");
    return opts;
}

TEST(Options, DefaultsApply)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(1, argv, err));
    EXPECT_EQ(opts.getString("name"), "default");
    EXPECT_EQ(opts.getInt("count"), 3);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 1.5);
    EXPECT_FALSE(opts.getFlag("verbose"));
    EXPECT_FALSE(opts.wasSet("name"));
}

TEST(Options, ParsesBothValueSyntaxes)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool", "--name", "abc", "--count=7",
                          "--verbose"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(5, argv, err));
    EXPECT_EQ(opts.getString("name"), "abc");
    EXPECT_EQ(opts.getInt("count"), 7);
    EXPECT_TRUE(opts.getFlag("verbose"));
    EXPECT_TRUE(opts.wasSet("count"));
}

TEST(Options, PositionalArgumentsCollected)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool", "pos1", "--count", "2", "pos2"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(5, argv, err));
    EXPECT_EQ(opts.positional(),
              (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(Options, RejectsUnknownOption)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool", "--bogus", "1"};
    std::ostringstream err;
    EXPECT_FALSE(opts.parse(3, argv, err));
    EXPECT_NE(err.str().find("unknown option"), std::string::npos);
}

TEST(Options, RejectsNonNumericValue)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool", "--count", "abc"};
    std::ostringstream err;
    EXPECT_FALSE(opts.parse(3, argv, err));
    EXPECT_NE(err.str().find("expects a number"), std::string::npos);
}

TEST(Options, MissingValueIsAnError)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool", "--count"};
    std::ostringstream err;
    EXPECT_FALSE(opts.parse(2, argv, err));
}

TEST(Options, HelpPrintsEveryOption)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"tool", "--help"};
    std::ostringstream err;
    EXPECT_FALSE(opts.parse(2, argv, err));
    EXPECT_NE(err.str().find("--name"), std::string::npos);
    EXPECT_NE(err.str().find("--ratio"), std::string::npos);
    EXPECT_NE(err.str().find("default: 1.5"), std::string::npos);
}

} // anonymous namespace
} // namespace mcdla
