/**
 * @file
 * Fuzz/property tests: seeded random DAGs must build, validate, and
 * simulate to completion on every design point with consistent
 * accounting — the scheduler must never deadlock regardless of graph
 * shape (branches, residuals, cheap chains, recurrent tails).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/scenario.hh"
#include "serving/request.hh"
#include "system/training_session.hh"
#include "workloads/synthetic.hh"

namespace mcdla
{
namespace
{

class SyntheticFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

SyntheticSpec
specForSeed(std::uint64_t seed)
{
    Random rng(seed * 7919 + 17);
    SyntheticSpec spec;
    spec.segments = 3 + static_cast<int>(rng.below(6));
    spec.inputSize = 32 + static_cast<std::int64_t>(rng.below(3)) * 16;
    spec.channels = 8 + static_cast<std::int64_t>(rng.below(16));
    spec.recurrentTail =
        rng.below(3) == 0 ? static_cast<std::int64_t>(rng.below(6)) + 2
                          : 0;
    return spec;
}

TEST_P(SyntheticFuzz, BuildsDeterministically)
{
    Random a(GetParam()), b(GetParam());
    const SyntheticSpec spec = specForSeed(GetParam());
    const Network x = buildSyntheticNetwork(a, spec);
    const Network y = buildSyntheticNetwork(b, spec);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(x.totalParams(), y.totalParams());
    EXPECT_EQ(x.stashBytesPerSample(), y.stashBytesPerSample());
}

TEST_P(SyntheticFuzz, SimulatesOnEveryDesignWithoutDeadlock)
{
    Random rng(GetParam());
    const SyntheticSpec spec = specForSeed(GetParam());
    const Network net = buildSyntheticNetwork(rng, spec);

    // Rotate (design, mode) by seed to bound runtime while covering the
    // matrix across the suite.
    const SystemDesign design =
        kAllDesigns[GetParam() % std::size(kAllDesigns)];
    const ParallelMode mode = GetParam() % 2 == 0
        ? ParallelMode::DataParallel
        : ParallelMode::ModelParallel;

    EventQueue eq;
    SystemConfig cfg;
    cfg.design = design;
    System system(eq, cfg);
    TrainingSession session(system, net, mode, 64);
    const IterationResult r = session.run();

    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.breakdown.computeSec, 0.0);
    EXPECT_GE(r.iterationSeconds() * 1.0001, r.breakdown.computeSec);
    if (designVirtualizesMemory(design)) {
        EXPECT_GT(r.offloadBytesPerDevice, 0.0);
    } else {
        EXPECT_DOUBLE_EQ(r.offloadBytesPerDevice, 0.0);
    }
    if (!designUsesHostMemory(design)) {
        EXPECT_DOUBLE_EQ(r.hostBytes, 0.0);
    }
}

TEST_P(SyntheticFuzz, OffloadPlanPartitionsEveryTensor)
{
    Random rng(GetParam());
    const SyntheticSpec spec = specForSeed(GetParam());
    const Network net = buildSyntheticNetwork(rng, spec);
    const OffloadPlan plan(net, OffloadPolicy{});
    for (LayerId id = 0; id < static_cast<LayerId>(net.size()); ++id) {
        const Layer &layer = net.layer(id);
        const TensorAction action = plan.entry(id).action;
        if (layer.costClass() == CostClass::Heavy) {
            EXPECT_EQ(action, TensorAction::Offload) << layer.name();
        }
        if (action == TensorAction::Offload
            && layer.kind() != LayerKind::Input) {
            EXPECT_GT(plan.entry(id).totalBytesPerSample(), 0u);
        }
    }
}

TEST_P(SyntheticFuzz, IterationIsReproducible)
{
    Random rng(GetParam());
    const SyntheticSpec spec = specForSeed(GetParam());
    const Network net = buildSyntheticNetwork(rng, spec);
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    TrainingSession session(system, net, ParallelMode::DataParallel,
                            64);
    const IterationResult a = session.run();
    const IterationResult b = session.run();
    EXPECT_EQ(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

class ServingFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ServingFuzz, SeededStreamsRoundTripThroughTraceText)
{
    // Every arrival process, fuzzed rates and counts: the trace text
    // of a synthesized stream must parse back bit-identically (names,
    // double-precision arrivals, sample counts), in arrival order.
    Random pick(GetParam() * 131 + 7);
    const ArrivalKind kind =
        kArrivalKinds.all()[pick.below(kArrivalKinds.all().size())]
            .value;
    const int count = 8 + static_cast<int>(pick.below(56));
    const double rate =
        50.0 + static_cast<double>(pick.below(9000));

    Random rng(GetParam());
    const auto stream = synthesizeRequests(count, rate, kind, rng);

    std::ostringstream text;
    for (const Request &request : stream)
        text << requestLine(request) << '\n';
    std::istringstream in(text.str());
    const auto parsed = parseRequestTrace(in);

    ASSERT_EQ(parsed.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(parsed[i].name, stream[i].name);
        EXPECT_EQ(parsed[i].arrivalSec, stream[i].arrivalSec);
        EXPECT_EQ(parsed[i].samples, stream[i].samples);
    }
}

TEST_P(ServingFuzz, ServingScenarioLabelsNameTheirKnobs)
{
    // Fuzzed serving knob combinations: the label must carry every
    // non-default serve-block token it claims to round-trip.
    Random pick(GetParam() * 263 + 11);
    Scenario sc;
    sc.workload = "VGG-E";
    sc.serve = true;
    sc.replicas = 1 + static_cast<int>(pick.below(8));
    sc.batchPolicy =
        kBatchPolicyKinds.all()[pick.below(kBatchPolicyKinds.all().size())]
            .value;
    sc.router =
        kRouterKinds.all()[pick.below(kRouterKinds.all().size())].value;
    sc.arrivals =
        kArrivalKinds.all()[pick.below(kArrivalKinds.all().size())]
            .value;
    sc.sloMs = 5.0 + static_cast<double>(pick.below(200));
    sc.requestRate = 100.0 + static_cast<double>(pick.below(8000));

    const std::string label = sc.label();
    EXPECT_NE(label.find("/serve/r" + std::to_string(sc.replicas)),
              std::string::npos)
        << label;
    EXPECT_NE(label.find(kBatchPolicyKinds.token(sc.batchPolicy)),
              std::string::npos);
    EXPECT_NE(label.find(kRouterKinds.token(sc.router)),
              std::string::npos);
    if (sc.arrivals != ArrivalKind::Poisson) {
        EXPECT_NE(label.find(kArrivalKinds.token(sc.arrivals)),
                  std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

} // anonymous namespace
} // namespace mcdla
