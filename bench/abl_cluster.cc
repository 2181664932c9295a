/**
 * @file
 * Ablation: cluster scheduler x pool allocator x offered load.
 *
 * Replays the same seeded synthetic job stream (Poisson arrivals over
 * the job-mix catalog) through every scheduler/allocator pairing at
 * several offered loads, on one shared eight-device machine:
 *
 *  - FIFO suffers head-of-line blocking when a whole-machine job
 *    queues behind a long half-machine run; memory-aware backfill
 *    slots the small jobs into the leftover devices, cutting mean JCT;
 *  - SJF reorders by the AnalyticEstimate service-time oracle, helping
 *    when long jobs arrive first;
 *  - the allocators differ in placement discipline: buddy trades
 *    internal rounding waste for cheap coalescing, first-fit keeps
 *    byte-exact blocks but can fragment the pool.
 *
 * Per-job rows (queueing delay, service, JCT, slowdown) and the pool
 * occupancy/fragmentation timeline go to --csv / --pool-csv. --smoke
 * runs a single load with FIFO vs backfill (the CI canary).
 */

#include <fstream>
#include <iostream>
#include <vector>

#include "core/mcdla.hh"
#include "core/options.hh"

using namespace mcdla;

int
main(int argc, char **argv)
{
    OptionParser opts("abl_cluster",
                      "Cluster ablation: scheduler x allocator x load");
    opts.addFlag("smoke", "run a single load point (CI canary)");
    opts.addString("csv", "", "write per-job rows to this CSV file");
    opts.addString("pool-csv", "",
                   "write pool timeline rows to this CSV file");
    opts.addInt("num-jobs", 0,
                "synthetic jobs per load point (0 = 24, smoke 16)");
    opts.addInt("seed", 42, "job-stream RNG seed");
    if (!opts.parse(argc, argv, std::cerr))
        return 1;

    LogConfig::verbose = false;
    const bool smoke = opts.getFlag("smoke");
    const auto seed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    const int num_jobs = opts.getInt("num-jobs") > 0
        ? static_cast<int>(opts.getInt("num-jobs"))
        : (smoke ? 16 : 24);

    const std::vector<double> rates =
        smoke ? std::vector<double>{120.0}
              : std::vector<double>{20.0, 60.0, 120.0};
    const std::vector<SchedulerKind> schedulers =
        smoke ? std::vector<SchedulerKind>{SchedulerKind::Fifo,
                                           SchedulerKind::Backfill}
              : std::vector<SchedulerKind>{SchedulerKind::Fifo,
                                           SchedulerKind::Sjf,
                                           SchedulerKind::Backfill};
    const std::vector<PoolAllocatorKind> allocators =
        smoke ? std::vector<PoolAllocatorKind>{
                    PoolAllocatorKind::FirstFit}
              : std::vector<PoolAllocatorKind>{
                    PoolAllocatorKind::FirstFit,
                    PoolAllocatorKind::Buddy};

    std::cout << "=== Cluster ablation: " << num_jobs
              << " jobs on one 8-device MC-DLA(B) machine, seed "
              << seed << " ===\n\n";

    std::vector<std::string> job_columns = {"arrival_rate", "scheduler",
                                            "allocator"};
    for (const std::string &column : ClusterReport::jobColumns())
        job_columns.push_back(column);
    ResultSet job_rows(job_columns);

    std::vector<std::string> pool_columns = {"arrival_rate",
                                             "scheduler", "allocator"};
    for (const std::string &column : ClusterReport::poolColumns())
        pool_columns.push_back(column);
    ResultSet pool_rows(pool_columns);

    double fifo_mean_jct = 0.0;
    double backfill_mean_jct = 0.0;

    for (double rate : rates) {
        // One job stream per load point, shared by every policy pair:
        // the same seed draws the same shapes, so policies are
        // compared on identical work.
        Random rng(seed);
        const std::vector<JobSpec> jobs =
            synthesizeJobs(num_jobs, rate, 8, rng);

        TablePrinter table({"Scheduler", "Allocator", "MeanJCT(s)",
                            "P99JCT(s)", "MeanQueue(s)",
                            "MeanSlowdown", "Makespan(s)", "PoolPeak%",
                            "Frag", "AllocFails"});
        for (SchedulerKind scheduler : schedulers) {
            for (PoolAllocatorKind allocator : allocators) {
                ClusterConfig cfg;
                cfg.base.design = SystemDesign::McDlaB;
                cfg.base.seed = seed;
                cfg.scheduler = scheduler;
                cfg.allocator = allocator;
                Cluster cluster(cfg, jobs);
                const ClusterReport report = cluster.run();

                if (scheduler == SchedulerKind::Fifo
                    && allocator == PoolAllocatorKind::FirstFit)
                    fifo_mean_jct = report.meanJctSec();
                if (scheduler == SchedulerKind::Backfill
                    && allocator == PoolAllocatorKind::FirstFit)
                    backfill_mean_jct = report.meanJctSec();

                table.addRow(
                    {kSchedulerKinds.token(scheduler),
                     kPoolAllocatorKinds.token(allocator),
                     TablePrinter::num(report.meanJctSec(), 4),
                     TablePrinter::num(
                         report.jctPercentileSec(99.0), 4),
                     TablePrinter::num(report.meanQueueSec(), 4),
                     TablePrinter::num(report.meanSlowdown(), 2),
                     TablePrinter::num(report.makespanSec, 4),
                     TablePrinter::num(
                         report.peakPoolUtilization() * 100.0, 2),
                     TablePrinter::num(report.meanFragmentation(), 3),
                     std::to_string(report.allocationFailures)});

                for (const JobOutcome &job : report.jobs) {
                    std::vector<ReportValue> row = {
                        rate, std::string(kSchedulerKinds.token(scheduler)),
                        std::string(kPoolAllocatorKinds.token(allocator))};
                    for (ReportValue &value :
                         ClusterReport::jobRow(job))
                        row.push_back(std::move(value));
                    job_rows.addRow(std::move(row));
                }
                const ResultSet pool = report.poolTable();
                for (std::size_t s = 0;
                     s < report.timeline.size(); ++s) {
                    std::vector<ReportValue> row = {
                        rate, std::string(kSchedulerKinds.token(scheduler)),
                        std::string(kPoolAllocatorKinds.token(allocator))};
                    for (std::size_t c = 0;
                         c < ClusterReport::poolColumns().size(); ++c)
                        row.push_back(pool.cell(s, c));
                    pool_rows.addRow(std::move(row));
                }
            }
        }
        std::cout << "-- offered load: " << rate << " jobs/s --\n";
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "backfill mean JCT "
              << (fifo_mean_jct > 0.0
                      ? backfill_mean_jct / fifo_mean_jct
                      : 0.0)
              << "x FIFO at the last load point: small jobs slot into "
                 "the devices a blocked\nwhole-machine job cannot use, "
                 "while the shared fabric prices in their contention.\n";

    if (!opts.getString("csv").empty()) {
        std::ofstream out = openOutput(opts.getString("csv"));
        job_rows.writeCsv(out);
        std::cout << "\nwrote " << opts.getString("csv") << '\n';
    }
    if (!opts.getString("pool-csv").empty()) {
        std::ofstream out = openOutput(opts.getString("pool-csv"));
        pool_rows.writeCsv(out);
        std::cout << "wrote " << opts.getString("pool-csv") << '\n';
    }
    return 0;
}
