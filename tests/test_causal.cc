/**
 * @file
 * Causal-observability tests: provenance capture on a hand-built
 * scenario with a known critical path, DAG conservation under
 * SimCheck, attribution summing to the makespan, what-if predictions
 * validated against actual re-runs, and the no-perturbation guarantee
 * (identical determinism-audit hash with the recorder attached).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "serving/serving.hh"
#include "sim/causal.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/profiler.hh"
#include "sim/simcheck.hh"
#include "workloads/job_mix.hh"
#include "workloads/synthetic.hh"

namespace mcdla
{
namespace
{

/**
 * Hand-built diamond join with a known critical path:
 *
 *   root (t=0) schedules A (fires t=10) and B (fires t=25);
 *   whichever fires last schedules C (+5) — last-arrival binding, so
 *   C's parent is B and the critical path is root -> B -> C with
 *   makespan 30. A also schedules a dead-end D (+2, fires t=12) that
 *   must stay off the path.
 */
TEST(Causal, HandBuiltCriticalPath)
{
    EventQueue eq;
    CausalRecorder rec;
    eq.setCausalRecorder(&rec);

    int arrived = 0;
    Tick c_fired = 0;
    auto join = [&] {
        if (++arrived == 2) {
            CausalScope scope(eq.causalRecorder(), WaitKind::Compute,
                              CausalCtx::Collective, "joined");
            eq.scheduleAfter(5, [&] { c_fired = eq.now(); }, "C");
        }
    };
    eq.schedule(0,
                [&] {
                    {
                        CausalScope scope(eq.causalRecorder(),
                                          WaitKind::Compute, "devA");
                        eq.scheduleAfter(10,
                                         [&] {
                                             join();
                                             eq.scheduleAfter(
                                                 2, [] {}, "D");
                                         },
                                         "A");
                    }
                    CausalScope scope(eq.causalRecorder(),
                                      WaitKind::ChanXfer,
                                      CausalCtx::Dma, "chanB");
                    eq.scheduleAfter(25, join, "B");
                },
                "root");
    eq.run();

    ASSERT_EQ(c_fired, 30u);
    ASSERT_EQ(rec.nodes().size(), 5u);
    ASSERT_EQ(rec.executedCount(), 5u);

    const CausalAnalysis analysis(rec);
    EXPECT_EQ(analysis.makespan(), 30u);

    // root -> B -> C, never through A or D.
    const std::vector<std::size_t> &path = analysis.criticalPath();
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(rec.labelName(rec.nodes()[path[0]].label), "root");
    EXPECT_EQ(rec.labelName(rec.nodes()[path[1]].label), "B");
    EXPECT_EQ(rec.labelName(rec.nodes()[path[2]].label), "C");

    // Edge typing: B's 25 ticks are chan_xfer in the dma context on
    // "chanB"; C's 5 ticks are compute in the collective context.
    EXPECT_EQ(analysis.pathKindTicks(WaitKind::ChanXfer), 25u);
    EXPECT_EQ(analysis.pathKindTicks(WaitKind::Compute), 5u);
    EXPECT_EQ(analysis.pathCtxTicks(CausalCtx::Dma), 25u);
    EXPECT_EQ(analysis.pathCtxTicks(CausalCtx::Collective), 5u);
    const CausalRecorder::Node &b = rec.nodes()[path[1]];
    EXPECT_EQ(rec.resourceName(b.resource), "chanB");
    EXPECT_EQ(b.ctx, CausalCtx::Dma);

    // Kind/subsystem attribution (plus origin) sums to the makespan.
    Tick kind_total = analysis.originTicks();
    for (std::size_t k = 0; k < kWaitKindCount; ++k)
        kind_total += analysis.pathKindTicks(static_cast<WaitKind>(k));
    EXPECT_EQ(kind_total, analysis.makespan());

    // What-if on the recorded DAG: halving chan edges moves B to
    // t=12.5; the join then binds at... the *recorded* parent stays
    // binding, so predicted C = 12.5 + 5 = 17.5.
    const WhatIfResult whatif = analysis.whatIf({{"chan", 0.5}});
    EXPECT_EQ(whatif.baseline, 30u);
    EXPECT_DOUBLE_EQ(whatif.predicted, 17.5);
    EXPECT_EQ(whatif.scaledEdges, 1u);

    // Unknown class: fatal, listing the valid classes.
    LogConfig::throwOnError = true;
    EXPECT_THROW(analysis.whatIf({{"warp-drive", 0.5}}), FatalError);
    LogConfig::throwOnError = false;
    const std::vector<std::string> classes = analysis.validClasses();
    EXPECT_NE(std::find(classes.begin(), classes.end(), "chanB"),
              classes.end());
    EXPECT_NE(std::find(classes.begin(), classes.end(), "compute"),
              classes.end());
}

/** Scenario helper: one AlexNet dp iteration on MC-DLA(B). */
Scenario
dpScenario()
{
    Scenario sc;
    sc.workload = "AlexNet";
    sc.design = SystemDesign::McDlaB;
    sc.mode = ParallelMode::DataParallel;
    sc.globalBatch = 512;
    return sc;
}

/** Run @p sc recorded; returns the recorder (and result ticks). */
Tick
runRecorded(const Scenario &sc, CausalRecorder &rec)
{
    Simulator sim;
    Simulator::Hooks hooks;
    hooks.causal = &rec;
    const IterationResult result = sim.run(sc, hooks);
    return secondsToTicks(result.iterationSeconds());
}

TEST(Causal, DagConservationUnderSimCheck)
{
    const bool was_enabled = simcheck::enabled();
    simcheck::setEnabled(true);
    LogConfig::throwOnError = true;

    CausalRecorder rec;
    runRecorded(dpScenario(), rec);

    // Construction runs simcheckVerify (SimCheck is on); also check
    // the ledger explicitly: every node is executed or a weak event
    // discarded at the drain, and executed nodes have sane parents.
    EXPECT_NO_THROW(rec.simcheckVerify());
    std::uint64_t executed = 0, discarded = 0;
    for (const CausalRecorder::Node &node : rec.nodes()) {
        if (node.executed) {
            ++executed;
        } else {
            EXPECT_TRUE(node.weak);
            ++discarded;
        }
        if (node.executed && node.parent >= 0) {
            const CausalRecorder::Node &parent =
                rec.nodes()[static_cast<std::size_t>(node.parent)];
            EXPECT_TRUE(parent.executed);
            EXPECT_EQ(parent.fire, node.sched);
            EXPECT_LE(node.sched, node.fire);
        }
    }
    EXPECT_EQ(executed, rec.executedCount());
    EXPECT_EQ(executed + discarded, rec.scheduled());
    EXPECT_GT(executed, 100000u); // a real run, not a stub

    const CausalAnalysis analysis(rec);
    // Attribution sums exactly to the makespan, per kind and per
    // subsystem (acceptance criterion).
    Tick kind_total = analysis.originTicks();
    for (std::size_t k = 0; k < kWaitKindCount; ++k)
        kind_total += analysis.pathKindTicks(static_cast<WaitKind>(k));
    EXPECT_EQ(kind_total, analysis.makespan());
    Tick ctx_total = analysis.originTicks();
    for (std::size_t c = 0; c < kCausalCtxCount; ++c)
        ctx_total += analysis.pathCtxTicks(static_cast<CausalCtx>(c));
    EXPECT_EQ(ctx_total, analysis.makespan());

    LogConfig::throwOnError = false;
    simcheck::setEnabled(was_enabled);
}

TEST(Causal, WhatIfMatchesRerunDp)
{
    // Predict compute at 0.8x along the recorded DAG, then actually
    // re-run with the compute model scaled. The recorded-parent
    // assumption holds well at this factor; the acceptance bound is
    // 10%.
    CausalRecorder rec;
    runRecorded(dpScenario(), rec);
    const CausalAnalysis analysis(rec);
    const WhatIfResult whatif = analysis.whatIf({{"compute", 0.8}});
    EXPECT_GT(whatif.scaledEdges, 0u);
    EXPECT_LT(whatif.predicted,
              static_cast<double>(whatif.baseline));

    Scenario scaled = dpScenario();
    scaled.base.computeTimeScale = 0.8;
    CausalRecorder rec2;
    runRecorded(scaled, rec2);
    const Tick actual = CausalAnalysis(rec2).makespan();
    const double error =
        std::abs(whatif.predicted - static_cast<double>(actual))
        / static_cast<double>(actual);
    EXPECT_LT(error, 0.10) << "predicted " << whatif.predicted
                           << " ticks vs actual " << actual;
}

/** Seeded 4-job cluster run mirroring the bench smoke point. */
ClusterConfig
clusterCfg(double compute_scale)
{
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.seed = 7;
    cfg.base.base.computeTimeScale = compute_scale;
    return cfg;
}

Tick
runCluster(ClusterConfig cfg, CausalRecorder *rec)
{
    cfg.causal = rec;
    Random rng(cfg.base.seed);
    std::vector<JobSpec> jobs = synthesizeJobs(
        4, /*arrival_rate=*/50.0, cfg.base.base.fabric.numDevices,
        rng);
    Cluster cluster(cfg, std::move(jobs));
    return secondsToTicks(cluster.run().makespanSec);
}

TEST(Causal, WhatIfMatchesRerunCluster)
{
    CausalRecorder rec;
    runCluster(clusterCfg(1.0), &rec);
    const CausalAnalysis analysis(rec);
    const WhatIfResult whatif = analysis.whatIf({{"compute", 0.5}});
    EXPECT_GT(whatif.scaledEdges, 0u);

    const Tick actual = runCluster(clusterCfg(0.5), nullptr);
    const double error =
        std::abs(whatif.predicted - static_cast<double>(actual))
        / static_cast<double>(actual);
    EXPECT_LT(error, 0.10) << "predicted " << whatif.predicted
                           << " ticks vs actual " << actual;
}

/** Seeded serving run mirroring the bench smoke point. */
Tick
runServe(double compute_scale, CausalRecorder *rec)
{
    ServingConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.workload = "AlexNet";
    cfg.base.serve = true;
    cfg.base.replicas = 2;
    cfg.base.globalBatch = 8;
    cfg.base.sloMs = 50.0;
    cfg.base.seed = 5;
    cfg.base.base.computeTimeScale = compute_scale;
    cfg.causal = rec;
    Random rng(cfg.base.seed);
    std::vector<Request> stream = synthesizeRequests(
        20, /*rate=*/200.0, ArrivalKind::Poisson, rng);
    ServingCluster serving(cfg, std::move(stream));
    return secondsToTicks(serving.run().makespanSec);
}

TEST(Causal, WhatIfMatchesRerunServe)
{
    CausalRecorder rec;
    runServe(1.0, &rec);
    const CausalAnalysis analysis(rec);
    const WhatIfResult whatif = analysis.whatIf({{"compute", 0.5}});
    EXPECT_GT(whatif.scaledEdges, 0u);

    const Tick actual = runServe(0.5, nullptr);
    const double error =
        std::abs(whatif.predicted - static_cast<double>(actual))
        / static_cast<double>(actual);
    EXPECT_LT(error, 0.10) << "predicted " << whatif.predicted
                           << " ticks vs actual " << actual;
}

TEST(Causal, RecorderDoesNotPerturbExecution)
{
    // The determinism-audit digest — FNV-1a over the executed
    // (tick, label) stream — must be identical with and without the
    // recorder attached: recording is observation-only.
    Scenario sc = dpScenario();

    DesProfiler plain;
    {
        Simulator sim;
        Simulator::Hooks hooks;
        hooks.profiler = &plain;
        sim.run(sc, hooks);
    }

    DesProfiler recorded;
    CausalRecorder rec;
    {
        Simulator sim;
        Simulator::Hooks hooks;
        hooks.profiler = &recorded;
        hooks.causal = &rec;
        sim.run(sc, hooks);
    }

    EXPECT_EQ(plain.streamHash(), recorded.streamHash());
    EXPECT_EQ(plain.eventsExecuted(), recorded.eventsExecuted());
    EXPECT_EQ(rec.executedCount(), recorded.eventsExecuted());
}

TEST(Causal, WhatIfSpecParsing)
{
    const std::vector<WhatIfChange> changes =
        parseWhatIfSpec("compute:0.5,chan");
    ASSERT_EQ(changes.size(), 2u);
    EXPECT_EQ(changes[0].cls, "compute");
    EXPECT_DOUBLE_EQ(changes[0].factor, 0.5);
    EXPECT_EQ(changes[1].cls, "chan");
    EXPECT_DOUBLE_EQ(changes[1].factor, 0.5); // default

    LogConfig::throwOnError = true;
    EXPECT_THROW(parseWhatIfSpec("compute:zero"), FatalError);
    EXPECT_THROW(parseWhatIfSpec("compute:-1"), FatalError);
    // A factor must be finite as well as positive.
    EXPECT_THROW(parseWhatIfSpec("compute:nan"), FatalError);
    EXPECT_THROW(parseWhatIfSpec("compute:inf"), FatalError);
    EXPECT_THROW(parseWhatIfSpec("chan:0.5,compute:1e999"), FatalError);
    EXPECT_THROW(parseWhatIfSpec(","), FatalError);
    LogConfig::throwOnError = false;
}

} // namespace
} // namespace mcdla
