/**
 * @file
 * Walkthrough: multi-job scheduling over the shared memory-node pool.
 *
 * Submits a small mixed job stream — a half-machine ResNet run, a
 * whole-machine VGG-E job that blocks behind it, and two small
 * single-device jobs — to an eight-device MC-DLA(B) cluster, first
 * under FIFO and then under memory-aware backfill, and prints the
 * per-job queueing/JCT metrics side by side. Backfill slots the small
 * jobs around the blocked heavyweight, cutting mean JCT; the pool
 * timeline shows the carve-outs coming and going.
 */

#include <iostream>

#include "core/mcdla.hh"

using namespace mcdla;

namespace
{

std::vector<JobSpec>
makeJobStream()
{
    // The same stream parseJobTrace() would produce from:
    //   arrival=0.00 workload=ResNet mode=dp batch=256 devices=6
    //       iterations=10 (one line)
    //   arrival=0.01 workload=VGG-E   mode=dp batch=512 devices=8
    //   arrival=0.02 workload=AlexNet mode=dp batch=128 devices=1
    //   arrival=0.03 workload=RNN-GEMV mode=dp batch=128 devices=1
    std::vector<JobSpec> jobs(4);
    jobs[0].name = "resnet-6d";
    jobs[0].workload = "ResNet";
    jobs[0].batch = 256;
    jobs[0].devices = 6;
    jobs[0].iterations = 10;
    jobs[0].arrivalSec = 0.00;
    jobs[1].name = "vgg-8d";
    jobs[1].workload = "VGG-E";
    jobs[1].batch = 512;
    jobs[1].devices = 8;
    jobs[1].arrivalSec = 0.01;
    jobs[2].name = "alexnet-1d";
    jobs[2].workload = "AlexNet";
    jobs[2].batch = 128;
    jobs[2].devices = 1;
    jobs[2].arrivalSec = 0.02;
    jobs[3].name = "gemv-1d";
    jobs[3].workload = "RNN-GEMV";
    jobs[3].batch = 128;
    jobs[3].devices = 1;
    jobs[3].arrivalSec = 0.03;
    return jobs;
}

ClusterReport
runWith(SchedulerKind scheduler)
{
    ClusterConfig cfg;
    cfg.base.design = SystemDesign::McDlaB;
    cfg.scheduler = scheduler;
    cfg.allocator = PoolAllocatorKind::FirstFit;
    Cluster cluster(cfg, makeJobStream());
    return cluster.run();
}

} // anonymous namespace

int
main()
{
    LogConfig::verbose = false;

    std::cout << "=== Cluster walkthrough: 4 jobs on one 8-device "
                 "MC-DLA(B) machine ===\n\n";

    for (SchedulerKind scheduler :
         {SchedulerKind::Fifo, SchedulerKind::Backfill}) {
        const ClusterReport report = runWith(scheduler);

        std::cout << "-- scheduler: " << kSchedulerKinds.token(scheduler)
                  << " --\n";
        TablePrinter table({"Job", "Devs", "Pool(GiB)", "Arrive(s)",
                            "Queue(s)", "Service(s)", "JCT(s)",
                            "Slowdown"});
        for (const JobOutcome &job : report.jobs) {
            table.addRow(
                {job.spec.name, std::to_string(job.spec.devices),
                 TablePrinter::num(static_cast<double>(job.poolBytes)
                                       / static_cast<double>(kGiB),
                                   1),
                 TablePrinter::num(job.arrivalSec, 3),
                 TablePrinter::num(job.queueSec(), 3),
                 TablePrinter::num(job.serviceSec(), 3),
                 TablePrinter::num(job.jctSec(), 3),
                 TablePrinter::num(job.slowdown(), 2)});
        }
        table.print(std::cout);
        std::cout << "mean JCT " << report.meanJctSec()
                  << " s, mean queue " << report.meanQueueSec()
                  << " s, makespan " << report.makespanSec
                  << " s, peak pool "
                  << report.peakPoolUtilization() * 100.0 << "%\n\n";
    }

    std::cout << "FIFO parks the single-device jobs behind the blocked "
                 "whole-machine VGG run;\nbackfill slots them into the "
                 "two devices ResNet leaves free, trading a little\n"
                 "VGG delay for a much lower mean JCT.\n";
    return 0;
}
