/**
 * @file
 * Job trace parsing and synthetic arrival generation.
 */

#include "cluster/job.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/text.hh"

namespace mcdla
{

std::string
JobSpec::label() const
{
    std::ostringstream os;
    os << name << ':' << workload << '/' << kParallelModes.token(mode)
       << "/b" << batch << "/d" << devices;
    return os.str();
}

std::vector<JobSpec>
parseJobTrace(std::istream &in)
{
    return readTrace<JobSpec>(
        in, "job trace", "job",
        [](JobSpec &spec, const TraceReader &trace,
           const TraceReader::Field &field) {
            if (field.key == "workload")
                spec.workload = field.value;
            else if (field.key == "mode")
                spec.mode = kParallelModes.parse(field.value);
            else if (field.key == "batch")
                spec.batch = trace.number<std::int64_t>(field);
            else if (field.key == "devices")
                spec.devices = trace.number<int>(field);
            else if (field.key == "iterations")
                spec.iterations = trace.number<int>(field);
            else if (field.key == "stages")
                spec.pipelineStages = trace.number<int>(field);
            else if (field.key == "microbatches")
                spec.microbatches = trace.number<int>(field);
            else
                return false;
            return true;
        },
        [](const JobSpec &spec, const TraceReader &trace) {
            trace.require("workload");
            if (spec.mode != ParallelMode::Pipeline)
                for (const TraceReader::Field &field : trace.fields())
                    if (field.key == "stages"
                        || field.key == "microbatches")
                        trace.fail(std::string(field.key)
                                   + "= applies to mode=pp only (got mode="
                                   + kParallelModes.token(spec.mode) + ")");
            if (spec.batch < 1 || spec.devices < 1 || spec.iterations < 1
                || spec.microbatches < 1 || spec.pipelineStages < 0)
                trace.fail("non-positive job shape");
        });
}

std::vector<JobSpec>
loadJobTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open job trace '%s'", path.c_str());
    return parseJobTrace(in);
}

std::string
jobSpecLine(const JobSpec &spec)
{
    std::ostringstream os;
    os << "arrival=" << spec.arrivalSec << " workload=" << spec.workload
       << " mode=" << kParallelModes.token(spec.mode) << " batch="
       << spec.batch << " devices=" << spec.devices << " iterations="
       << spec.iterations;
    if (spec.mode == ParallelMode::Pipeline)
        os << " stages=" << spec.pipelineStages << " microbatches="
           << spec.microbatches;
    if (!spec.name.empty())
        os << " name=" << spec.name;
    return os.str();
}

std::vector<JobSpec>
synthesizeJobs(int count, double arrival_rate, int max_devices,
               Random &rng)
{
    if (count < 1)
        fatal("synthetic job stream requires a positive job count");
    if (arrival_rate <= 0.0)
        fatal("synthetic job stream requires a positive arrival rate");
    if (max_devices < 1)
        fatal("synthetic job stream requires at least one device");

    std::vector<JobSpec> jobs;
    jobs.reserve(static_cast<std::size_t>(count));
    double clock = 0.0;
    for (int i = 0; i < count; ++i) {
        const JobTemplate &t = sampleJobMix(defaultJobMix(), rng);
        JobSpec spec;
        spec.name = "job" + std::to_string(i);
        spec.workload = t.workload;
        spec.mode = t.mode;
        spec.batch = t.batch;
        spec.devices = std::min(t.devices, max_devices);
        spec.iterations = t.iterations;
        // Exponential interarrival times (Poisson process).
        clock += -std::log(1.0 - rng.uniform()) / arrival_rate;
        spec.arrivalSec = clock;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

} // namespace mcdla
