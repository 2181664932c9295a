/**
 * @file
 * Unit tests for the Scenario/Simulator facade: design/mode string
 * round-trips, option resolution (including the PCIe-generation
 * validation), workload-registry lookups, network caching, and
 * parallel-vs-serial sweep determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "core/options.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "sim/logging.hh"
#include "workloads/benchmarks.hh"
#include "workloads/registry.hh"

namespace mcdla
{
namespace
{

class ThrowingErrors : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

// ------------------------------------------------------- string round-trips

TEST(Scenario, DesignTokenRoundTripsForEveryDesign)
{
    for (const auto &row : kSystemDesigns.all()) {
        EXPECT_EQ(kSystemDesigns.parse(row.token), row.value);
        EXPECT_STREQ(systemDesignToken(row.value), row.token);
        // The paper-style long names parse too.
        EXPECT_EQ(kSystemDesigns.parse(kSystemDesigns.name(row.value)),
                  row.value);
    }
    EXPECT_STREQ(kSystemDesigns.name(SystemDesign::McDlaB), "MC-DLA(B)");
}

TEST(Scenario, AllSystemDesignsCoversTheEvaluationSet)
{
    const auto designs = kSystemDesigns.all();
    for (SystemDesign design : kAllDesigns)
        EXPECT_NE(std::find_if(designs.begin(), designs.end(),
                               [design](const auto &row) {
                                   return row.value == design;
                               }),
                  designs.end());
    EXPECT_EQ(designs.size(), 8u);
}

TEST(Scenario, ModeTokenRoundTrips)
{
    for (const auto &row : kParallelModes.all()) {
        EXPECT_EQ(kParallelModes.parse(row.token), row.value);
        EXPECT_STREQ(parallelModeToken(row.value), row.token);
        EXPECT_EQ(kParallelModes.parse(kParallelModes.name(row.value)),
                  row.value);
    }
    EXPECT_EQ(kParallelModes.parse("model"), ParallelMode::ModelParallel);
    EXPECT_EQ(kParallelModes.all().size(), 3u);
    EXPECT_EQ(kParallelModes.list(), "dp, mp, pp");
}

class ScenarioErrors : public ThrowingErrors
{};

TEST_F(ScenarioErrors, UnknownDesignIsFatal)
{
    try {
        kSystemDesigns.parse("warp-drive");
        ADD_FAILURE() << "warp-drive parsed";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: unknown design 'warp-drive' (dc, "
                               "hc, mc-s, mc-l, mc-b, oracle, mc-sa, "
                               "mc-x)");
    }
}

TEST_F(ScenarioErrors, UnknownModeIsFatal)
{
    EXPECT_THROW(kParallelModes.parse("tensor"), FatalError);
    // A prefix of a token or an alias is not a spelling of it.
    EXPECT_THROW(kParallelModes.parse("d"), FatalError);
    EXPECT_THROW(kParallelModes.parse("dat"), FatalError);
}

TEST(Scenario, LabelNamesTheRun)
{
    Scenario sc;
    sc.design = SystemDesign::DcDla;
    sc.workload = "VGG-E";
    sc.mode = ParallelMode::ModelParallel;
    sc.globalBatch = 128;
    EXPECT_EQ(sc.label(), "VGG-E/dc/mp/b128");
}

TEST(Scenario, SeedRoundTripsThroughLabelAndOptions)
{
    Scenario sc;
    sc.seed = 0;
    EXPECT_EQ(sc.label().find("seed"), std::string::npos);
    sc.seed = 99;
    EXPECT_NE(sc.label().find("/seed99"), std::string::npos);

    OptionParser opts("t", "test");
    Scenario::addOptions(opts);
    const char *argv[] = {"t", "--seed", "1234"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(3, argv, err));
    const Scenario parsed = Scenario::fromOptions(opts);
    EXPECT_EQ(parsed.seed, 1234u);
    EXPECT_NE(parsed.label().find("/seed1234"), std::string::npos);
}

TEST(Scenario, ConfigStampsTheDesign)
{
    Scenario sc;
    sc.design = SystemDesign::HcDla;
    sc.base.fabric.numDevices = 4;
    const SystemConfig cfg = sc.config();
    EXPECT_EQ(cfg.design, SystemDesign::HcDla);
    EXPECT_EQ(cfg.fabric.numDevices, 4);
}

// ------------------------------------------------------------ PCIe fix

TEST(Scenario, PcieBandwidthDoublesPerGeneration)
{
    EXPECT_DOUBLE_EQ(pcieRawBandwidthForGen(3), 16.0 * kGB);
    EXPECT_DOUBLE_EQ(pcieRawBandwidthForGen(4), 32.0 * kGB);
    EXPECT_DOUBLE_EQ(pcieRawBandwidthForGen(5), 64.0 * kGB);
    // Gen 1-2 used to hit a negative shift (undefined behavior); they
    // are ordinary half-steps now.
    EXPECT_DOUBLE_EQ(pcieRawBandwidthForGen(2), 8.0 * kGB);
    EXPECT_DOUBLE_EQ(pcieRawBandwidthForGen(1), 4.0 * kGB);
}

TEST_F(ScenarioErrors, PcieGenerationOutOfRangeIsFatal)
{
    EXPECT_THROW(pcieRawBandwidthForGen(0), FatalError);
    EXPECT_THROW(pcieRawBandwidthForGen(7), FatalError);
    EXPECT_THROW(pcieRawBandwidthForGen(-3), FatalError);
}

// ------------------------------------------------------ option resolution

TEST(Scenario, FromOptionsResolvesTheSharedKnobs)
{
    OptionParser opts("t", "test");
    Scenario::addOptions(opts);
    const char *argv[] = {"t",           "--design",   "hc",
                          "--workload",  "VGG-E",      "--mode",
                          "mp",          "--batch",    "256",
                          "--devices",   "4",          "--pcie-gen",
                          "4",           "--socket-gbps", "80",
                          "--no-recompute"};
    std::ostringstream err;
    ASSERT_TRUE(opts.parse(static_cast<int>(std::size(argv)), argv,
                           err));
    const Scenario sc = Scenario::fromOptions(opts);
    EXPECT_EQ(sc.design, SystemDesign::HcDla);
    EXPECT_EQ(sc.workload, "VGG-E");
    EXPECT_EQ(sc.mode, ParallelMode::ModelParallel);
    EXPECT_EQ(sc.globalBatch, 256);
    EXPECT_EQ(sc.base.fabric.numDevices, 4);
    EXPECT_DOUBLE_EQ(sc.base.fabric.pcieRawBandwidth, 32.0 * kGB);
    EXPECT_DOUBLE_EQ(sc.base.fabric.socketBandwidth, 80.0 * kGB);
    EXPECT_FALSE(sc.base.recomputeCheapLayers);
}

TEST_F(ScenarioErrors, FromOptionsRejectsBadValues)
{
    {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--pcie-gen", "0"};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    }
    {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--batch", "0"};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err));
        EXPECT_THROW(Scenario::fromOptions(opts), FatalError);
    }
    // An Int option takes a whole integer, a Double option a finite
    // number; anything else is one line naming the option.
    const std::pair<const char *, const char *> unparsable[] = {
        {"batch", "1e3"},         {"batch", "3.5"},
        {"iterations", "2x"},     {"link-gbps", "nan"},
        {"compute-scale", "nan"}, {"compute-scale", "inf"},
        {"compression", "-inf"},
    };
    for (const auto &[name, value] : unparsable) {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const std::string flag = std::string("--") + name;
        const char *argv[] = {"t", flag.c_str(), value};
        std::ostringstream err;
        EXPECT_FALSE(opts.parse(3, argv, err)) << flag << " " << value;
        const std::string message = err.str();
        EXPECT_NE(message.find("'" + flag + "'"), std::string::npos)
            << message;
        EXPECT_EQ(std::count(message.begin(), message.end(), '\n'), 1)
            << message;
    }
    // An integer that parses but does not fit its field is one fatal
    // line naming the option, not a silently truncated value.
    const std::pair<const char *, const char *> out_of_range[] = {
        {"iterations", "4294967297"}, {"devices", "4294967304"},
        {"dimm-gib", "4294967304"},   {"replicas", "4294967298"},
        {"requests", "4294967552"},   {"microbatches", "-4294967295"},
        {"iterations", "0"},          {"pipeline-stages", "-1"},
        {"switch-radix", "1"},        {"seed", "-3"},
    };
    for (const auto &[name, value] : out_of_range) {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const std::string flag = std::string("--") + name;
        const char *argv[] = {"t", flag.c_str(), value};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err)) << err.str();
        try {
            Scenario::fromOptions(opts);
            ADD_FAILURE() << flag << " " << value << " accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("fatal: " + flag + " must be ", 0), 0u)
                << what;
            EXPECT_NE(what.find(std::string("(got ") + value + ")"),
                      std::string::npos)
                << what;
        }
    }
    // cDMA's compression ratio divides every transfer size.
    for (const char *value : {"0", "-2"}) {
        OptionParser opts("t", "test");
        Scenario::addOptions(opts);
        const char *argv[] = {"t", "--compression", value};
        std::ostringstream err;
        ASSERT_TRUE(opts.parse(3, argv, err));
        try {
            Scenario::fromOptions(opts);
            ADD_FAILURE() << "--compression " << value << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "--compression must be positive"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ----------------------------------------------------- workload registry

TEST(WorkloadRegistry, TableThreeRowsAreRegisteredInOrder)
{
    const std::vector<std::string> expected = {
        "AlexNet",  "GoogLeNet",  "VGG-E",      "ResNet",
        "RNN-GEMV", "RNN-LSTM-1", "RNN-LSTM-2", "RNN-GRU"};
    const std::vector<std::string> names = benchmarkNames();
    EXPECT_EQ(names, expected);
    EXPECT_GE(WorkloadRegistry::instance().size(), expected.size());
}

TEST(WorkloadRegistry, LookupFindsRegisteredWorkloads)
{
    const WorkloadInfo *info =
        WorkloadRegistry::instance().find("ResNet");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->depth, 34);
    EXPECT_FALSE(info->recurrent);
    const Network net = info->build();
    EXPECT_GT(net.totalParams(), 0);
}

TEST(WorkloadRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(WorkloadRegistry::instance().find("NoSuchNet"), nullptr);
}

class RegistryErrors : public ThrowingErrors
{};

TEST_F(RegistryErrors, UnknownNameIsFatalWithKnownNamesListed)
{
    try {
        WorkloadRegistry::instance().at("NoSuchNet");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("NoSuchNet"), std::string::npos);
        EXPECT_NE(message.find("ResNet"), std::string::npos);
    }
}

TEST_F(RegistryErrors, DuplicateRegistrationIsFatal)
{
    WorkloadInfo dup;
    dup.name = "AlexNet";
    dup.build = [] { return builders::buildAlexNet(); };
    EXPECT_THROW(WorkloadRegistry::instance().add(std::move(dup)),
                 FatalError);
}

// ----------------------------------------------------------- simulator

TEST(Simulator, CachesNetworksByName)
{
    Simulator sim;
    const auto a = sim.network("AlexNet");
    const auto b = sim.network("AlexNet");
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), sim.network("VGG-E").get());
}

TEST(Simulator, RunMatchesManualAssembly)
{
    LogConfig::verbose = false;
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "AlexNet";
    sc.globalBatch = 64;

    Simulator sim;
    const IterationResult facade = sim.run(sc);

    EventQueue eq;
    System system(eq, sc.config());
    TrainingSession session(system, *sim.network("AlexNet"), sc.mode,
                            sc.globalBatch);
    const IterationResult manual = session.run();

    EXPECT_EQ(facade.makespan, manual.makespan);
    EXPECT_EQ(facade.eventsExecuted, manual.eventsExecuted);
    EXPECT_DOUBLE_EQ(facade.hostBytes, manual.hostBytes);
}

// -------------------------------------------------------------- sweeps

std::vector<Scenario>
sweepGrid()
{
    // 2 workloads x 3 designs x 2 modes = 12 scenarios (>= 8).
    std::vector<Scenario> scenarios;
    for (const char *workload : {"AlexNet", "RNN-LSTM-1"})
        for (SystemDesign design :
             {SystemDesign::DcDla, SystemDesign::HcDla,
              SystemDesign::McDlaB})
            for (ParallelMode mode : {ParallelMode::DataParallel,
                                      ParallelMode::ModelParallel}) {
                Scenario sc;
                sc.design = design;
                sc.workload = workload;
                sc.mode = mode;
                sc.globalBatch = 64;
                scenarios.push_back(std::move(sc));
            }
    return scenarios;
}

TEST(SweepRunner, ParallelSweepMatchesSerialByteForByte)
{
    LogConfig::verbose = false;
    const std::vector<Scenario> scenarios = sweepGrid();
    ASSERT_GE(scenarios.size(), 8u);

    SweepRunner serial(SweepConfig{/*threads=*/1, /*progress=*/false});
    SweepRunner parallel(SweepConfig{/*threads=*/4,
                                     /*progress=*/false});
    const ResultSet a = serial.runToResults(scenarios);
    const ResultSet b = parallel.runToResults(scenarios);

    ASSERT_EQ(a.rowCount(), scenarios.size());
    ASSERT_EQ(b.rowCount(), scenarios.size());

    std::ostringstream csv_a, csv_b, json_a, json_b;
    a.writeCsv(csv_a);
    b.writeCsv(csv_b);
    a.writeJson(json_a);
    b.writeJson(json_b);
    EXPECT_EQ(csv_a.str(), csv_b.str());
    EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(SweepRunner, ResultsArriveInScenarioOrder)
{
    LogConfig::verbose = false;
    std::vector<Scenario> scenarios;
    for (std::int64_t batch : {32, 64, 128, 256}) {
        Scenario sc;
        sc.workload = "AlexNet";
        sc.globalBatch = batch;
        scenarios.push_back(std::move(sc));
    }
    SweepRunner runner(SweepConfig{/*threads=*/3, /*progress=*/false});
    const ResultSet results = runner.runToResults(scenarios);
    ASSERT_EQ(results.rowCount(), 4u);
    for (std::size_t r = 0; r < results.rowCount(); ++r)
        EXPECT_EQ(std::get<std::int64_t>(results.cell(r, 3)),
                  scenarios[r].globalBatch);
}

TEST(SweepRunner, CursorChecksConsumeLoopAlignment)
{
    LogConfig::verbose = false;
    std::vector<Scenario> scenarios(2);
    scenarios[0].workload = "AlexNet";
    scenarios[0].design = SystemDesign::DcDla;
    scenarios[0].globalBatch = 64;
    scenarios[1].workload = "AlexNet";
    scenarios[1].design = SystemDesign::McDlaB;
    scenarios[1].globalBatch = 64;
    SweepRunner runner;
    const std::vector<IterationResult> results = runner.run(scenarios);

    SweepCursor good(scenarios, results);
    EXPECT_GT(good.next("AlexNet", SystemDesign::DcDla,
                        ParallelMode::DataParallel)
                  .makespan,
              0u);
    EXPECT_GT(good.next("AlexNet", SystemDesign::McDlaB,
                        ParallelMode::DataParallel)
                  .makespan,
              0u);

    LogConfig::throwOnError = true;
    SweepCursor drifted(scenarios, results);
    EXPECT_THROW(drifted.next("AlexNet", SystemDesign::McDlaB,
                              ParallelMode::DataParallel),
                 PanicError);
    SweepCursor spent(scenarios, results);
    spent.next("AlexNet", SystemDesign::DcDla,
               ParallelMode::DataParallel);
    spent.next("AlexNet", SystemDesign::McDlaB,
               ParallelMode::DataParallel);
    EXPECT_THROW(spent.next("AlexNet", SystemDesign::DcDla,
                            ParallelMode::DataParallel),
                 PanicError);
    LogConfig::throwOnError = false;
}

TEST(SweepRunner, EmptySweepIsFine)
{
    SweepRunner runner;
    EXPECT_TRUE(runner.run({}).empty());
    EXPECT_EQ(runner.runToResults({}).rowCount(), 0u);
}

class SweepErrors : public ThrowingErrors
{};

TEST_F(SweepErrors, WorkerErrorsSurfaceAfterThePoolDrains)
{
    std::vector<Scenario> scenarios(2);
    scenarios[0].workload = "AlexNet";
    scenarios[0].globalBatch = 64;
    scenarios[1].workload = "NoSuchNet";
    SweepRunner runner(SweepConfig{/*threads=*/2, /*progress=*/false});
    EXPECT_THROW(runner.run(scenarios), FatalError);
}

} // anonymous namespace
} // namespace mcdla
