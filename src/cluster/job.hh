/**
 * @file
 * Cluster job descriptions and arrival streams.
 *
 * A JobSpec is everything the cluster needs to run one training job:
 * the workload/parallelization shape (a subset of Scenario's vocabulary
 * — the machine design belongs to the cluster, not the job), the
 * device-node count it gangs, and its arrival time. Streams of specs
 * come from either a trace file (one `key=value` line per job, see
 * parseJobTrace) or the seeded synthetic arrival process
 * (synthesizeJobs: Poisson arrivals over the job-mix catalog).
 */

#ifndef MCDLA_CLUSTER_JOB_HH
#define MCDLA_CLUSTER_JOB_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "parallel/strategy.hh"
#include "sim/random.hh"
#include "workloads/job_mix.hh"

namespace mcdla
{

/** One training job submitted to the cluster. */
struct JobSpec
{
    /** Display name; defaults to "job<N>" when built from a stream. */
    std::string name;
    std::string workload = "ResNet";
    ParallelMode mode = ParallelMode::DataParallel;
    std::int64_t batch = 512;
    /** Device-nodes the job gangs (allocated together or not at all). */
    int devices = 1;
    int iterations = 1;
    /** Pipeline knobs (mode == pp only). */
    int pipelineStages = 0;
    int microbatches = 4;
    /** Submission time, seconds from cluster start. */
    double arrivalSec = 0.0;

    /** Compact identity, e.g. "job3:ResNet/dp/b256/d4". */
    std::string label() const;
};

/**
 * One job per line, `key=value` tokens separated by whitespace:
 *
 *   arrival=0.5 workload=ResNet mode=pp batch=256 devices=4 \
 *       iterations=2 name=resnet-a stages=0 microbatches=4
 *
 * Every key except `arrival` and `workload` is optional; '#' starts a
 * comment (readTrace in sim/text.hh). `stages` and `microbatches`
 * apply to mode=pp only; on a dp or mp job either is one fatal line
 * naming the key. Values must be finite numbers
 * that fit their field; anything else is one fatal line naming the
 * trace line and key. Jobs are returned sorted by arrival time.
 */
std::vector<JobSpec> parseJobTrace(std::istream &in);

/** parseJobTrace over a file path; fatal when unreadable. */
std::vector<JobSpec> loadJobTrace(const std::string &path);

/** The trace-file line of a spec (round-trips via parseJobTrace). */
std::string jobSpecLine(const JobSpec &spec);

/**
 * Synthesize @p count jobs with exponential interarrival times of rate
 * @p arrival_rate (jobs/sec) by sampling the default job-mix catalog;
 * device demands are clamped to @p max_devices. All randomness draws
 * from @p rng — the run's single seeded RNG — so a (seed, rate, count)
 * triple names a reproducible job stream.
 */
std::vector<JobSpec> synthesizeJobs(int count, double arrival_rate,
                                    int max_devices, Random &rng);

} // namespace mcdla

#endif // MCDLA_CLUSTER_JOB_HH
