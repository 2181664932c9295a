/**
 * @file
 * Unit tests for the cluster subsystem: pool allocators, schedulers,
 * job traces, ring restriction, and end-to-end multi-job scheduling
 * (including the single-job == standalone reproduction guarantee).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "cluster/cluster.hh"
#include "cluster/job.hh"
#include "cluster/pool_allocator.hh"
#include "cluster/scheduler.hh"
#include "core/simulator.hh"
#include "sim/logging.hh"
#include "workloads/job_mix.hh"

namespace mcdla
{
namespace
{

class ClusterTest : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

// ----------------------------------------------------- pool allocators

TEST_F(ClusterTest, FirstFitAllocatesCoalescesAndFragments)
{
    FirstFitPoolAllocator pool(100);
    EXPECT_EQ(pool.capacity(), 100u);
    EXPECT_EQ(pool.largestFreeBlock(), 100u);
    EXPECT_DOUBLE_EQ(pool.fragmentation(), 0.0);

    const auto a = pool.allocate(40);
    const auto b = pool.allocate(20);
    const auto c = pool.allocate(40);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(a->addr, 0u);
    EXPECT_EQ(b->addr, 40u);
    EXPECT_EQ(c->addr, 60u);
    EXPECT_EQ(pool.usedBytes(), 100u);
    EXPECT_FALSE(pool.canAllocate(1));
    EXPECT_FALSE(pool.allocate(1).has_value());
    EXPECT_EQ(pool.allocationFailures(), 1u);

    // Freeing the middle block leaves a 20-byte hole: usable only by
    // requests that small.
    pool.release(*b);
    EXPECT_EQ(pool.freeBytes(), 20u);
    EXPECT_EQ(pool.largestFreeBlock(), 20u);
    EXPECT_TRUE(pool.canAllocate(20));
    EXPECT_FALSE(pool.canAllocate(21));

    // Freeing the ends too: [0,40)+[40,60) coalesce against live c...
    pool.release(*a);
    EXPECT_EQ(pool.largestFreeBlock(), 60u);
    EXPECT_EQ(pool.holeCount(), 1u);

    // ...and two disjoint holes mean external fragmentation: 60 free
    // in front, 40 unreachable by a single 100-byte request.
    const auto mid = pool.allocate(60);
    ASSERT_TRUE(mid);
    pool.release(*c);
    EXPECT_EQ(pool.holeCount(), 1u);
    const auto front = pool.allocate(10); // splits the reclaimed tail
    ASSERT_TRUE(front);
    pool.release(*mid);
    EXPECT_EQ(pool.holeCount(), 2u);
    EXPECT_GT(pool.fragmentation(), 0.0);

    pool.release(*front);
    EXPECT_EQ(pool.largestFreeBlock(), 100u);
    EXPECT_EQ(pool.holeCount(), 1u);
    EXPECT_DOUBLE_EQ(pool.fragmentation(), 0.0);
    EXPECT_EQ(pool.peakUsedBytes(), 100u);
}

TEST_F(ClusterTest, BuddyRoundsToPowersOfTwoAndMerges)
{
    BuddyPoolAllocator pool(1024, /*min_block=*/64);
    const auto a = pool.allocate(65); // rounds to 128
    ASSERT_TRUE(a);
    EXPECT_EQ(a->bytes, 128u);
    EXPECT_EQ(a->requested, 65u);
    EXPECT_EQ(pool.internalWasteBytes(), 63u);

    const auto b = pool.allocate(64);
    ASSERT_TRUE(b);
    EXPECT_EQ(b->bytes, 64u);
    EXPECT_EQ(pool.usedBytes(), 192u);

    pool.release(*a);
    pool.release(*b);
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.internalWasteBytes(), 0u);
    // Everything merges back into the single 1024 block.
    EXPECT_EQ(pool.largestFreeBlock(), 1024u);

    // A request beyond the largest block can never be placed.
    EXPECT_FALSE(pool.canAllocate(2048));
}

TEST_F(ClusterTest, BuddySeedsNonPowerOfTwoCapacity)
{
    // 1024 + 256: binary decomposition seeds two aligned chunks.
    BuddyPoolAllocator pool(1280, /*min_block=*/64);
    EXPECT_EQ(pool.largestFreeBlock(), 1024u);
    const auto a = pool.allocate(1024);
    ASSERT_TRUE(a);
    EXPECT_EQ(pool.largestFreeBlock(), 256u);
    const auto b = pool.allocate(200); // rounds to 256 at addr 1024
    ASSERT_TRUE(b);
    EXPECT_EQ(b->addr, 1024u);
    EXPECT_FALSE(pool.canAllocate(64));
    pool.release(*a);
    pool.release(*b);
    EXPECT_EQ(pool.largestFreeBlock(), 1024u);
}

TEST_F(ClusterTest, PoolTokensRoundTrip)
{
    for (const auto &row : kPoolAllocatorKinds.all())
        EXPECT_EQ(kPoolAllocatorKinds.parse(row.token), row.value);
    EXPECT_EQ(kPoolAllocatorKinds.parse("ff"), PoolAllocatorKind::FirstFit);
    EXPECT_EQ(kPoolAllocatorKinds.all().size(), 2u);
    EXPECT_THROW(kPoolAllocatorKinds.parse("slab"), FatalError);
}

// ---------------------------------------------------------- schedulers

PendingJob
pendingJob(std::size_t index, int devices, std::uint64_t bytes,
           double est, double arrival)
{
    PendingJob job;
    job.jobIndex = index;
    job.devices = devices;
    job.poolBytes = bytes;
    job.estServiceSec = est;
    job.arrivalSec = arrival;
    return job;
}

TEST_F(ClusterTest, FifoBlocksBehindTheHead)
{
    FirstFitPoolAllocator pool(100);
    const auto fifo = makeScheduler(SchedulerKind::Fifo);
    std::vector<PendingJob> queue = {
        pendingJob(0, 8, 10, 1.0, 0.0), // needs the whole machine
        pendingJob(1, 1, 10, 0.1, 0.1),
    };
    // 4 free devices: the head does not fit, so nothing starts.
    EXPECT_EQ(fifo->pick(queue, 4, pool), JobScheduler::npos);
    EXPECT_EQ(fifo->pick(queue, 8, pool), 0u);
}

TEST_F(ClusterTest, SjfPrefersTheShortestEstimate)
{
    FirstFitPoolAllocator pool(100);
    const auto sjf = makeScheduler(SchedulerKind::Sjf);
    std::vector<PendingJob> queue = {
        pendingJob(0, 2, 10, 5.0, 0.0),
        pendingJob(1, 2, 10, 0.5, 0.1),
        pendingJob(2, 2, 10, 2.0, 0.2),
    };
    EXPECT_EQ(sjf->pick(queue, 8, pool), 1u);
}

TEST_F(ClusterTest, BackfillSkipsABlockedHead)
{
    FirstFitPoolAllocator pool(100);
    const auto backfill = makeScheduler(SchedulerKind::Backfill);
    std::vector<PendingJob> queue = {
        pendingJob(0, 8, 10, 1.0, 0.0),
        pendingJob(1, 2, 10, 0.1, 0.1),
    };
    // FIFO would block on the 8-device head; backfill starts job 1.
    EXPECT_EQ(backfill->pick(queue, 4, pool), 1u);

    // When the head is blocked by memory, best-fit packing picks the
    // fitting job that best fills the largest free hole.
    const auto big = pool.allocate(60);
    ASSERT_TRUE(big);
    std::vector<PendingJob> memory_blocked = {
        pendingJob(0, 2, 90, 1.0, 0.0),  // fits devices, not pool
        pendingJob(1, 2, 10, 0.1, 0.1),
        pendingJob(2, 2, 35, 0.1, 0.2),  // best fit for the 40 hole
    };
    EXPECT_EQ(backfill->pick(memory_blocked, 8, pool), 2u);
}

TEST_F(ClusterTest, SchedulerTokensRoundTrip)
{
    for (const auto &row : kSchedulerKinds.all()) {
        EXPECT_EQ(kSchedulerKinds.parse(row.token), row.value);
        EXPECT_STRNE(kSchedulerKinds.description(row.value), "");
    }
    EXPECT_EQ(kSchedulerKinds.parse("bestfit-backfill"),
              SchedulerKind::Backfill);
    EXPECT_EQ(kSchedulerKinds.all().size(), 3u);
    EXPECT_THROW(kSchedulerKinds.parse("gang"), FatalError);
}

// ----------------------------------------------------------- job specs

TEST_F(ClusterTest, JobTraceParsesAndRoundTrips)
{
    std::istringstream in(
        "# mixed stream\n"
        "arrival=0.5 workload=ResNet mode=dp batch=256 devices=4 "
        "iterations=2 name=resnet-a\n"
        "\n"
        "arrival=0.1 workload=VGG-E devices=8 # sorts first\n");
    const std::vector<JobSpec> jobs = parseJobTrace(in);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].workload, "VGG-E");
    EXPECT_DOUBLE_EQ(jobs[0].arrivalSec, 0.1);
    EXPECT_EQ(jobs[1].name, "resnet-a");
    EXPECT_EQ(jobs[1].devices, 4);
    EXPECT_EQ(jobs[1].iterations, 2);

    // jobSpecLine round-trips through the parser.
    std::istringstream again(jobSpecLine(jobs[1]) + "\n");
    const std::vector<JobSpec> reparsed = parseJobTrace(again);
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0].workload, jobs[1].workload);
    EXPECT_EQ(reparsed[0].devices, jobs[1].devices);
    EXPECT_EQ(reparsed[0].mode, jobs[1].mode);
    EXPECT_DOUBLE_EQ(reparsed[0].arrivalSec, jobs[1].arrivalSec);

    std::istringstream bad("arrival=0.0 workload=X frobnicate=1\n");
    EXPECT_THROW(parseJobTrace(bad), FatalError);
    std::istringstream missing("workload=X\n");
    EXPECT_THROW(parseJobTrace(missing), FatalError);

    // A non-finite arrival or a count that does not fit its field is
    // one fatal line naming the trace line and the key.
    const std::pair<const char *, const char *> rejected[] = {
        {"arrival=nan workload=X", "line 2: arrival=nan"},
        {"arrival=inf workload=X", "line 2: arrival=inf"},
        {"arrival=-1 workload=X", "line 2: negative arrival"},
        {"arrival=0 workload=X devices=4294967298",
         "line 2: devices=4294967298"},
        {"arrival=0 workload=X iterations=4294967297",
         "line 2: iterations=4294967297"},
        {"arrival=0 workload=X mode=pp stages=2147483648",
         "line 2: stages=2147483648"},
        {"arrival=0 workload=X microbatches=-4294967295",
         "line 2: microbatches=-4294967295"},
        // The pipeline knobs of a dp or mp job would be ignored.
        {"arrival=0 workload=X mode=dp microbatches=8",
         "line 2: microbatches= applies to mode=pp only (got mode=dp)"},
        {"arrival=0 workload=X stages=2 mode=mp",
         "line 2: stages= applies to mode=pp only (got mode=mp)"},
        {"arrival=0 workload=X batch=99999999999999999999",
         "line 2: batch=99999999999999999999"},
        {"arrival=0 workload", "line 2: token 'workload'"},
        {"arrival=0", "line 2: workload= is required"},
    };
    for (const auto &[line, message] : rejected) {
        std::istringstream text(std::string("# header\n") + line + "\n");
        try {
            parseJobTrace(text);
            ADD_FAILURE() << line << " accepted";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("job trace ") + message),
                      std::string::npos)
                << what;
            EXPECT_EQ(what.find('\n'), std::string::npos) << what;
        }
    }
}

TEST_F(ClusterTest, SyntheticStreamIsSeedDeterministic)
{
    Random rng_a(123);
    Random rng_b(123);
    Random rng_c(77);
    const auto a = synthesizeJobs(12, 50.0, 8, rng_a);
    const auto b = synthesizeJobs(12, 50.0, 8, rng_b);
    const auto c = synthesizeJobs(12, 50.0, 8, rng_c);
    ASSERT_EQ(a.size(), 12u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].devices, b[i].devices);
        EXPECT_DOUBLE_EQ(a[i].arrivalSec, b[i].arrivalSec);
        EXPECT_LE(a[i].devices, 8);
        if (i > 0) {
            EXPECT_GE(a[i].arrivalSec, a[i - 1].arrivalSec);
        }
    }
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].arrivalSec != c[i].arrivalSec;
    EXPECT_TRUE(differs);
}

TEST_F(ClusterTest, SeedRoundTripsThroughScenarioLabel)
{
    Scenario sc;
    EXPECT_EQ(sc.label().find("seed"), std::string::npos);
    sc.seed = 1234;
    EXPECT_NE(sc.label().find("/seed1234"), std::string::npos);
}

// ------------------------------------------------- ring restriction

TEST_F(ClusterTest, RestrictedRingKeepsThePhysicalLoop)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.design = SystemDesign::McDlaB;
    System system(eq, cfg);
    ASSERT_FALSE(system.fabric().rings().empty());
    const RingPath &full = system.fabric().rings().front();

    // Restricting to every device reproduces the original ring.
    std::vector<int> all;
    for (int d = 0; d < system.numDevices(); ++d)
        all.push_back(d);
    const RingPath same = restrictRingToDevices(full, all);
    EXPECT_EQ(same.stageCount(), full.stageCount());
    EXPECT_EQ(same.physicalHopCount(), full.physicalHopCount());

    // A two-member ring drops the other device stages but still
    // traverses every physical channel of the loop.
    const RingPath sub = restrictRingToDevices(full, {2, 5});
    const std::vector<int> members = sub.deviceMembers();
    ASSERT_EQ(members.size(), 2u);
    EXPECT_EQ(members[0], 2);
    EXPECT_EQ(members[1], 5);
    EXPECT_LT(sub.stageCount(), full.stageCount());
    EXPECT_EQ(sub.physicalHopCount(), full.physicalHopCount());

    // Fewer than two members: no ring.
    EXPECT_EQ(restrictRingToDevices(full, {3}).stageCount(), 0);
}

// ------------------------------------------------- cluster end-to-end

JobSpec
makeJob(const std::string &name, const std::string &workload,
        std::int64_t batch, int devices, double arrival,
        int iterations = 1)
{
    JobSpec spec;
    spec.name = name;
    spec.workload = workload;
    spec.batch = batch;
    spec.devices = devices;
    spec.arrivalSec = arrival;
    spec.iterations = iterations;
    return spec;
}

TEST_F(ClusterTest, SingleJobReproducesStandaloneExactly)
{
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "ResNet";
    sc.globalBatch = 512;
    sc.iterations = 2;
    Simulator sim;
    const IterationResult solo = sim.run(sc);

    ClusterConfig cfg;
    cfg.base = sc;
    JobSpec job = makeJob("solo", "ResNet", 512, 8, 0.0, 2);
    Cluster cluster(cfg, {job});
    const ClusterReport report = cluster.run();

    ASSERT_EQ(report.jobs.size(), 1u);
    const JobOutcome &outcome = report.jobs[0];
    ASSERT_TRUE(outcome.completed);
    const IterationResult &clustered = outcome.lastIteration;

    EXPECT_EQ(clustered.makespan, solo.makespan);
    EXPECT_DOUBLE_EQ(clustered.breakdown.computeSec,
                     solo.breakdown.computeSec);
    EXPECT_DOUBLE_EQ(clustered.breakdown.syncSec,
                     solo.breakdown.syncSec);
    EXPECT_DOUBLE_EQ(clustered.breakdown.vmemSec,
                     solo.breakdown.vmemSec);
    EXPECT_EQ(clustered.paging.fills, solo.paging.fills);
    EXPECT_EQ(clustered.paging.writebacks, solo.paging.writebacks);
    EXPECT_EQ(clustered.paging.demandHits, solo.paging.demandHits);
    EXPECT_DOUBLE_EQ(clustered.offloadBytesPerDevice,
                     solo.offloadBytesPerDevice);
    EXPECT_DOUBLE_EQ(clustered.syncBytes, solo.syncBytes);
    EXPECT_DOUBLE_EQ(outcome.queueSec(), 0.0);
}

TEST_F(ClusterTest, JobPoolBytesEqualTheSessionsRemoteBytes)
{
    // The scheduler sizes a job's pool block without building its
    // session; the block must hold exactly what the session allocates.
    struct PoolCase
    {
        const char *workload;
        ParallelMode mode;
        int devices;
        int stages;
        int microbatches;
    };
    const PoolCase cases[] = {
        {"ResNet", ParallelMode::DataParallel, 4, 0, 4},
        {"RNN-LSTM-1", ParallelMode::ModelParallel, 2, 0, 4},
        {"ResNet", ParallelMode::Pipeline, 4, 4, 4},
        {"GoogLeNet", ParallelMode::Pipeline, 2, 2, 4},
    };
    Simulator sim;
    for (SystemDesign design :
         {SystemDesign::McDlaB, SystemDesign::DcDla}) {
        for (const PoolCase &c : cases) {
            JobSpec spec = makeJob("pool", c.workload, 256, c.devices, 0.0);
            spec.mode = c.mode;
            spec.pipelineStages = c.stages;
            spec.microbatches = c.microbatches;
            SCOPED_TRACE(spec.label() + " on "
                         + kSystemDesigns.token(design));

            SystemConfig cfg;
            cfg.design = design;
            EventQueue eq;
            System system(eq, cfg);
            std::vector<int> devices;
            for (int d = 0; d < c.devices; ++d)
                devices.push_back(d);
            const Network &net = *sim.network(c.workload);
            TrainingSession session(system, net, c.mode, spec.batch,
                                    c.stages, c.microbatches, devices);
            session.run();
            std::uint64_t allocated = 0;
            for (int d : devices)
                allocated += system.addressSpace(d).remoteUsed();

            EXPECT_GT(allocated, 0u);
            EXPECT_EQ(Cluster::jobPoolBytes(
                          spec, net, cfg,
                          system.addressSpace(0).pageBytes()),
                      allocated);
        }
    }
}

TEST_F(ClusterTest, OffloadBytesIgnoreAnEarlierJobOnTheSameDevices)
{
    // The second job queues behind the first for all eight devices and
    // reuses their DMA engines; its iteration reports only its own
    // offload and prefetch bytes.
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    const JobSpec job = makeJob("second", "AlexNet", 128, 8, 0.0);

    Cluster alone(cfg, {job});
    const ClusterReport solo = alone.run();
    Cluster after(cfg, {makeJob("first", "AlexNet", 128, 8, 0.0), job});
    const ClusterReport report = after.run();

    ASSERT_EQ(solo.completedJobs(), 1u);
    ASSERT_EQ(report.completedJobs(), 2u);
    EXPECT_GT(report.jobs[1].queueSec(), 0.0);
    const double alone_bytes =
        solo.jobs[0].lastIteration.offloadBytesPerDevice;
    EXPECT_GT(alone_bytes, 0.0);
    EXPECT_DOUBLE_EQ(report.jobs[1].lastIteration.offloadBytesPerDevice,
                     alone_bytes);
}

TEST_F(ClusterTest, BackfillBeatsFifoOnABlockedMix)
{
    // A 6-device job holds the machine while an 8-device job queues;
    // two 1-device jobs arrive behind it. FIFO parks them; backfill
    // slots them into the two free devices.
    const std::vector<JobSpec> jobs = {
        makeJob("big6", "ResNet", 256, 6, 0.00, 10),
        makeJob("full8", "VGG-E", 512, 8, 0.01),
        makeJob("tiny-a", "AlexNet", 128, 1, 0.02),
        makeJob("tiny-b", "RNN-GEMV", 128, 1, 0.03),
    };

    auto runWith = [&jobs](SchedulerKind scheduler) {
        ClusterConfig cfg;
        cfg.base.design = SystemDesign::McDlaB;
        cfg.scheduler = scheduler;
        Cluster cluster(cfg, jobs);
        return cluster.run();
    };
    const ClusterReport fifo = runWith(SchedulerKind::Fifo);
    const ClusterReport backfill = runWith(SchedulerKind::Backfill);

    ASSERT_EQ(fifo.completedJobs(), 4u);
    ASSERT_EQ(backfill.completedJobs(), 4u);
    EXPECT_LT(backfill.meanJctSec(), fifo.meanJctSec());
    // The small jobs never queue under backfill...
    EXPECT_NEAR(backfill.jobs[2].queueSec(), 0.0, 1e-9);
    EXPECT_NEAR(backfill.jobs[3].queueSec(), 0.0, 1e-9);
    // ...but wait for the whole-machine job under FIFO.
    EXPECT_GT(fifo.jobs[2].queueSec(), 0.01);
    EXPECT_GT(fifo.jobs[3].queueSec(), 0.01);
}

TEST_F(ClusterTest, CoLocatedJobsContendOnTheSharedFabric)
{
    // Model-parallel GoogLeNet gathers feature maps at every
    // channel-mixing boundary, so two 4-device jobs sharing the ring
    // slow each other down measurably: no per-job private bandwidth.
    auto mpJob = [](const char *name) {
        JobSpec spec;
        spec.name = name;
        spec.workload = "GoogLeNet";
        spec.mode = ParallelMode::ModelParallel;
        spec.batch = 256;
        spec.devices = 4;
        spec.iterations = 2;
        return spec;
    };
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;

    Cluster alone(cfg, {mpJob("a")});
    const double solo_service = alone.run().jobs[0].serviceSec();

    Cluster shared(cfg, {mpJob("a"), mpJob("b")});
    const ClusterReport report = shared.run();
    ASSERT_EQ(report.completedJobs(), 2u);
    // Both started immediately (8 devices cover both)...
    EXPECT_NEAR(report.jobs[0].queueSec(), 0.0, 1e-9);
    EXPECT_NEAR(report.jobs[1].queueSec(), 0.0, 1e-9);
    // ...but the shared channels stretch both services well past solo.
    EXPECT_GT(report.jobs[0].serviceSec(), solo_service * 1.05);
    EXPECT_GT(report.jobs[1].serviceSec(), solo_service * 1.05);

    // The structural reason: the two jobs' restricted collective
    // rings traverse overlapping physical channels.
    EventQueue eq;
    System system(eq, cfg.base.config());
    const RingPath &full = system.fabric().rings().front();
    const RingPath left = restrictRingToDevices(full, {0, 1, 2, 3});
    const RingPath right = restrictRingToDevices(full, {4, 5, 6, 7});
    std::set<const Channel *> left_channels;
    for (const Route &hop : left.hops)
        for (Channel *channel : hop.hops)
            left_channels.insert(channel);
    bool overlap = false;
    for (const Route &hop : right.hops)
        for (Channel *channel : hop.hops)
            overlap = overlap || left_channels.count(channel) > 0;
    EXPECT_TRUE(overlap);
}

TEST_F(ClusterTest, PoolExhaustionQueuesJobsDespiteFreeDevices)
{
    // Shrink the pool to one 8 GiB DIMM per memory-node (64 GiB
    // total): three single-device VGG-E jobs demand ~29 GiB each, so
    // only two fit at once even though six devices stay idle.
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.base.base.memNode.dimm = dimmByCapacityGib(8);
    cfg.base.base.memNode.numDimms = 1;

    const std::vector<JobSpec> jobs = {
        makeJob("vgg-a", "VGG-E", 512, 1, 0.0),
        makeJob("vgg-b", "VGG-E", 512, 1, 0.0),
        makeJob("vgg-c", "VGG-E", 512, 1, 0.0),
    };
    Cluster cluster(cfg, jobs);
    EXPECT_EQ(cluster.poolCapacityBytes(), 64 * kGiB);
    const ClusterReport report = cluster.run();

    ASSERT_EQ(report.completedJobs(), 3u);
    EXPECT_GT(report.jobs[0].poolBytes, 20 * kGiB);
    // Two run immediately; the third queues on memory alone.
    EXPECT_NEAR(report.jobs[0].queueSec(), 0.0, 1e-9);
    EXPECT_NEAR(report.jobs[1].queueSec(), 0.0, 1e-9);
    EXPECT_GT(report.jobs[2].queueSec(), 0.0);
    EXPECT_GE(report.allocationFailures, 1u);

    // The timeline recorded the failure and the carve-outs.
    bool saw_fail = false;
    bool saw_alloc = false;
    for (const PoolSample &sample : report.timeline) {
        saw_fail = saw_fail
            || std::string(sample.event) == "fail";
        saw_alloc = saw_alloc
            || std::string(sample.event) == "alloc";
    }
    EXPECT_TRUE(saw_fail);
    EXPECT_TRUE(saw_alloc);
}

TEST_F(ClusterTest, InfeasibleJobsAreRejectedNotWedged)
{
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    JobSpec bad_pipeline = makeJob("bad-pp", "ResNet", 256, 2, 0.05);
    bad_pipeline.mode = ParallelMode::Pipeline;
    bad_pipeline.pipelineStages = 4; // > its 2 devices
    const std::vector<JobSpec> jobs = {
        makeJob("too-wide", "ResNet", 512, 16, 0.0), // > 8 devices
        bad_pipeline,
        makeJob("fine", "AlexNet", 128, 1, 0.1),
    };
    Cluster cluster(cfg, jobs);
    const ClusterReport report = cluster.run();
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_TRUE(report.jobs[0].rejected);
    EXPECT_FALSE(report.jobs[0].completed);
    EXPECT_TRUE(report.jobs[1].rejected);
    EXPECT_TRUE(report.jobs[2].completed);
}

TEST_F(ClusterTest, ReportTablesMatchTheirColumns)
{
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    Cluster cluster(cfg, {makeJob("a", "AlexNet", 128, 2, 0.0)});
    const ClusterReport report = cluster.run();

    const ResultSet jobs = report.jobTable();
    EXPECT_EQ(jobs.columns().size(),
              ClusterReport::jobColumns().size());
    EXPECT_EQ(jobs.rowCount(), 1u);
    std::ostringstream csv;
    jobs.writeCsv(csv);
    EXPECT_NE(csv.str().find("completed"), std::string::npos);

    const ResultSet pool = report.poolTable();
    EXPECT_EQ(pool.columns().size(),
              ClusterReport::poolColumns().size());
    EXPECT_GE(pool.rowCount(), 2u); // alloc + free
    EXPECT_GT(report.makespanSec, 0.0);
}

} // anonymous namespace
} // namespace mcdla
