/**
 * @file
 * Ablation: serving batch policy x offered load x training co-location.
 *
 * Two sweeps over one shared eight-device MC-DLA(B) machine serving
 * VGG-E replicas, both replaying the same seeded Poisson request
 * stream per load point so policies are compared on identical work:
 *
 *  - batching: static / dynamic / continuous coalescing at a moderate
 *    and a near-saturation offered load. Static's full-batch rule
 *    idles the replica while a partial batch waits for stragglers, so
 *    its queueing delay explodes at high load; continuous batching
 *    launches whatever is queued the moment the replica idles and
 *    holds the p99 tail near the bare service time;
 *
 *  - co-location: round-robin / least-loaded / SLO-aware routing at
 *    the near-saturation load while a data-parallel VGG-E training
 *    job occupies the other four devices. The training gang's paging
 *    and collective traffic slows the replicas unevenly (the replicas
 *    bordering the gang share memory-node DIMM buses with it), which
 *    the SLO-aware router's observed-service-rate predictions price
 *    in and queue-depth balancing cannot.
 *
 * Per-request rows (queue/service/latency breakdowns, batch size, SLO
 * verdict) go to --csv. --smoke shrinks both sweeps to a CI canary.
 */

#include <fstream>
#include <iostream>
#include <vector>

#include "core/mcdla.hh"
#include "core/options.hh"

using namespace mcdla;

namespace
{

Scenario
baseScenario(std::uint64_t seed)
{
    Scenario sc;
    sc.design = SystemDesign::McDlaB;
    sc.workload = "VGG-E";
    sc.serve = true;
    sc.replicas = 4;
    sc.globalBatch = 32; // max coalesced batch
    sc.sloMs = 50.0;
    sc.seed = seed;
    return sc;
}

JobSpec
trainingJob(int iterations)
{
    JobSpec job;
    job.name = "train0";
    job.workload = "VGG-E";
    job.mode = ParallelMode::DataParallel;
    job.batch = 256;
    job.devices = 4;
    job.iterations = iterations;
    job.arrivalSec = 0.0;
    return job;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("abl_serving",
                      "Serving ablation: batch policy x load x "
                      "co-location");
    opts.addFlag("smoke", "run shrunk sweeps (CI canary)");
    opts.addString("csv", "", "write per-request rows to this CSV file");
    opts.addInt("requests", 0,
                "requests per load point (0 = 4096, smoke 512)");
    opts.addInt("seed", 2, "request-stream RNG seed");
    if (!opts.parse(argc, argv, std::cerr))
        return 1;

    LogConfig::verbose = false;
    const bool smoke = opts.getFlag("smoke");
    const auto seed =
        static_cast<std::uint64_t>(opts.getInt("seed"));
    const int num_requests = opts.getInt("requests") > 0
        ? static_cast<int>(opts.getInt("requests"))
        : (smoke ? 512 : 4096);
    // Near-saturation for 4 VGG-E replicas at max batch 32: continuous
    // batches grow to absorb the load while static queues blow up.
    const double high_rate = 5300.0;
    const std::vector<double> rates = smoke
        ? std::vector<double>{high_rate}
        : std::vector<double>{2000.0, high_rate};
    // The co-located job must outlive the request stream so every
    // request is served under interference.
    const int training_iterations = smoke ? 5 : 60;

    std::cout << "=== Serving ablation: " << num_requests
              << " requests on one 8-device MC-DLA(B) machine, 4 "
                 "VGG-E replicas, seed "
              << seed << " ===\n\n";

    std::vector<std::string> columns = {"sweep", "batch_policy",
                                        "router", "request_rate",
                                        "colocated"};
    for (const std::string &column : ServingReport::requestColumns())
        columns.push_back(column);
    ResultSet rows(columns);

    const double slo_sec = baseScenario(seed).sloMs / 1e3;
    auto emit = [&](const char *sweep, const ServingReport &report,
                    double rate, bool colocated) {
        for (const RequestOutcome &outcome : report.requests) {
            std::vector<ReportValue> row = {
                std::string(sweep),
                std::string(kBatchPolicyKinds.token(report.batchPolicy)),
                std::string(kRouterKinds.token(report.router)), rate,
                static_cast<std::int64_t>(colocated ? 1 : 0)};
            for (ReportValue &value :
                 ServingReport::requestRow(outcome, slo_sec))
                row.push_back(std::move(value));
            rows.addRow(std::move(row));
        }
    };

    // -- Sweep 1: batch policy x offered load (no co-location) --
    double static_p99 = 0.0;
    double continuous_p99 = 0.0;
    for (double rate : rates) {
        Random rng(seed);
        const std::vector<Request> stream = synthesizeRequests(
            num_requests, rate, ArrivalKind::Poisson, rng);

        TablePrinter table({"Policy", "MeanBatch", "Mean(ms)",
                            "P50(ms)", "P95(ms)", "P99(ms)", "SLOVio%",
                            "Thru(req/s)"});
        for (const auto &row : kBatchPolicyKinds.all()) {
            const BatchPolicyKind policy = row.value;
            ServingConfig cfg;
            cfg.base = baseScenario(seed);
            cfg.base.requestRate = rate;
            cfg.base.batchPolicy = policy;
            ServingCluster serving(cfg, stream);
            const ServingReport report = serving.run();

            if (rate == high_rate
                && policy == BatchPolicyKind::Static)
                static_p99 = report.latencyPercentileMs(99.0);
            if (rate == high_rate
                && policy == BatchPolicyKind::Continuous)
                continuous_p99 = report.latencyPercentileMs(99.0);

            table.addRow(
                {row.token,
                 TablePrinter::num(report.meanBatchSamples(), 2),
                 TablePrinter::num(report.meanLatencyMs(), 2),
                 TablePrinter::num(report.latencyPercentileMs(50.0),
                                   2),
                 TablePrinter::num(report.latencyPercentileMs(95.0),
                                   2),
                 TablePrinter::num(report.latencyPercentileMs(99.0),
                                   2),
                 TablePrinter::num(report.sloViolationRate() * 100.0,
                                   1),
                 TablePrinter::num(report.throughputRps(), 1)});
            emit("batching", report, rate, false);
        }
        std::cout << "-- offered load: " << rate << " req/s --\n";
        table.print(std::cout);
        std::cout << '\n';
    }

    // -- Sweep 2: router x co-location at the near-saturation load --
    double rr_p99 = 0.0;
    double least_loaded_p99 = 0.0;
    double slo_p99 = 0.0;
    {
        Random rng(seed);
        const std::vector<Request> stream = synthesizeRequests(
            num_requests, high_rate, ArrivalKind::Poisson, rng);

        TablePrinter table({"Router", "Mean(ms)", "P50(ms)", "P95(ms)",
                            "P99(ms)", "SLOVio%", "TrainJCT(s)"});
        for (const auto &row : kRouterKinds.all()) {
            const RouterKind router = row.value;
            ServingConfig cfg;
            cfg.base = baseScenario(seed);
            cfg.base.requestRate = high_rate;
            cfg.base.router = router;
            cfg.trainingJobs = {trainingJob(training_iterations)};
            ServingCluster serving(cfg, stream);
            const ServingReport report = serving.run();

            const double p99 = report.latencyPercentileMs(99.0);
            if (router == RouterKind::RoundRobin)
                rr_p99 = p99;
            if (router == RouterKind::LeastLoaded)
                least_loaded_p99 = p99;
            if (router == RouterKind::SloAware)
                slo_p99 = p99;

            table.addRow(
                {row.token,
                 TablePrinter::num(report.meanLatencyMs(), 2),
                 TablePrinter::num(report.latencyPercentileMs(50.0),
                                   2),
                 TablePrinter::num(report.latencyPercentileMs(95.0),
                                   2),
                 TablePrinter::num(p99, 2),
                 TablePrinter::num(report.sloViolationRate() * 100.0,
                                   1),
                 TablePrinter::num(
                     report.trainingJobs.empty()
                             || !report.trainingJobs[0].completed
                         ? 0.0
                         : report.trainingJobs[0].jctSec(),
                     3)});
            emit("colocation", report, high_rate, true);
        }
        std::cout << "-- routers under a co-located 4-device VGG-E "
                     "training job, "
                  << high_rate << " req/s --\n";
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "continuous batching p99 "
              << (static_p99 > 0.0 ? continuous_p99 / static_p99 : 0.0)
              << "x static at " << high_rate
              << " req/s: the full-batch rule idles the replica while "
                 "partial batches\nwait for stragglers. SLO-aware "
                 "routing p99 "
              << (least_loaded_p99 > 0.0
                      ? slo_p99 / least_loaded_p99
                      : 0.0)
              << "x least-loaded and "
              << (rr_p99 > 0.0 ? slo_p99 / rr_p99 : 0.0)
              << "x round-robin under co-located training: observed "
                 "service rates price in\nthe replicas the training "
                 "gang's paging slows, queue depths cannot.\n";

    if (!opts.getString("csv").empty()) {
        std::ofstream out = openOutput(opts.getString("csv"));
        rows.writeCsv(out);
        std::cout << "\nwrote " << opts.getString("csv") << '\n';
    }
    return 0;
}
