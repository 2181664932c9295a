/**
 * @file
 * Request trace parsing and synthetic arrival generation.
 */

#include "serving/request.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"
#include "workloads/job_mix.hh"

namespace mcdla
{

std::vector<Request>
parseRequestTrace(std::istream &in)
{
    return readTrace<Request>(
        in, "request trace", "req",
        [](Request &request, const TraceReader &trace,
           const TraceReader::Field &field) {
            if (field.key != "samples")
                return false;
            request.samples = trace.number<int>(field);
            return true;
        },
        [](const Request &request, const TraceReader &trace) {
            if (request.samples < 1)
                trace.fail("non-positive sample count");
        });
}

std::vector<Request>
loadRequestTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open request trace '%s'", path.c_str());
    return parseRequestTrace(in);
}

std::string
requestLine(const Request &request)
{
    std::ostringstream os;
    // max_digits10 so synthesized arrival times round-trip exactly.
    os << "arrival=" << std::setprecision(17) << request.arrivalSec
       << " samples=" << request.samples;
    if (!request.name.empty())
        os << " name=" << request.name;
    return os.str();
}

std::vector<Request>
synthesizeRequests(int count, double rate, ArrivalKind kind,
                   Random &rng)
{
    if (count < 1)
        fatal("synthetic request stream requires a positive count");
    if (rate <= 0.0)
        fatal("synthetic request stream requires a positive rate");

    // Bursty: two-state MMPP. The ON state runs at kBurstMultiplier x
    // the OFF rate and covers kBurstFraction of the time; the OFF rate
    // is normalized so the long-run mean stays at @p rate. State dwell
    // times are exponential with means of a few mean interarrivals, so
    // bursts span several requests.
    constexpr double kBurstMultiplier = 5.0;
    constexpr double kBurstFraction = 0.2;
    const double base_rate = rate
        / (1.0 - kBurstFraction + kBurstFraction * kBurstMultiplier);
    const double mean_on_dwell = 8.0 / rate;
    const double mean_off_dwell =
        mean_on_dwell * (1.0 - kBurstFraction) / kBurstFraction;

    // Diurnal: sinusoidal rate modulation with one full period over
    // the stream's nominal duration (count/rate seconds of traffic).
    constexpr double kDiurnalAmplitude = 0.8;
    const double period = static_cast<double>(count) / rate;

    auto exponential = [&rng](double r) {
        return -std::log(1.0 - rng.uniform()) / r;
    };

    std::vector<Request> requests;
    requests.reserve(static_cast<std::size_t>(count));
    double clock = 0.0;
    bool burst_on = false;
    double dwell_left = exponential(1.0 / mean_off_dwell);
    for (int i = 0; i < count; ++i) {
        switch (kind) {
          case ArrivalKind::Poisson:
            clock += exponential(rate);
            break;
          case ArrivalKind::Bursty: {
            double gap = exponential(
                burst_on ? base_rate * kBurstMultiplier : base_rate);
            // Walk through state switches the gap straddles, rescaling
            // the residual gap by the rate ratio at each flip.
            while (gap > dwell_left) {
                clock += dwell_left;
                gap = (gap - dwell_left)
                    * (burst_on ? kBurstMultiplier
                                : 1.0 / kBurstMultiplier);
                burst_on = !burst_on;
                dwell_left = exponential(
                    1.0 / (burst_on ? mean_on_dwell : mean_off_dwell));
            }
            dwell_left -= gap;
            clock += gap;
            break;
          }
          case ArrivalKind::Diurnal: {
            // Nonhomogeneous Poisson by local-rate stepping: draw the
            // gap at the instantaneous rate, a good approximation when
            // the modulation period spans many interarrivals.
            const double local = rate
                * (1.0
                   + kDiurnalAmplitude
                       * std::sin(2.0 * 3.14159265358979323846 * clock
                                  / period));
            clock += exponential(std::max(local, 0.05 * rate));
            break;
          }
        }
        Request request;
        request.name = "req" + std::to_string(i);
        request.arrivalSec = clock;
        request.samples =
            sampleRequestMix(defaultRequestMix(), rng).samples;
        requests.push_back(std::move(request));
    }
    return requests;
}

} // namespace mcdla
