/**
 * @file
 * Inference request streams: arrival processes and trace round-trips.
 *
 * A Request is one open-loop inference query — an arrival time and a
 * sample count (the client-side micro-batch). Streams come from either
 * a trace file (one `key=value` line per request, mirroring the
 * cluster's parseJobTrace) or the seeded synthetic arrival processes:
 * Poisson (the classic open-loop baseline), bursty (a two-state
 * Markov-modulated Poisson process whose ON state multiplies the
 * rate), and diurnal (a sinusoidally rate-modulated Poisson process —
 * one full "day" over the stream). Request sizes are drawn from the
 * workloads/job_mix request catalog, so a (seed, rate, count, kind)
 * tuple names a reproducible stream.
 */

#ifndef MCDLA_SERVING_REQUEST_HH
#define MCDLA_SERVING_REQUEST_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/text.hh"

namespace mcdla
{

/** Synthetic arrival-process selector. */
enum class ArrivalKind
{
    Poisson,
    Bursty,
    Diurnal,
};

inline constexpr TokenRow<ArrivalKind> kArrivalKindRows[] = {
    {ArrivalKind::Poisson, "poisson"},
    {ArrivalKind::Bursty, "bursty"},
    {ArrivalKind::Diurnal, "diurnal"},
};

/** --arrivals vocabulary. */
inline constexpr TokenTable<ArrivalKind> kArrivalKinds{
    "arrival process", kArrivalKindRows};

/** One inference request submitted to the serving cluster. */
struct Request
{
    /** Display name; defaults to "req<N>" when built from a stream. */
    std::string name;
    /** Submission time, seconds from serving start. */
    double arrivalSec = 0.0;
    /** Samples the request carries (joins a server-side batch). */
    int samples = 1;
};

/**
 * One request per line, `key=value` tokens separated by whitespace:
 *
 *   arrival=0.015 samples=2 name=req7
 *
 * `arrival` is required; '#' starts a comment (readTrace in
 * sim/text.hh). Values must be finite numbers that fit their field;
 * anything else is one fatal line naming the trace line and key.
 * Requests are returned sorted by arrival time.
 */
std::vector<Request> parseRequestTrace(std::istream &in);

/** parseRequestTrace over a file path; fatal when unreadable. */
std::vector<Request> loadRequestTrace(const std::string &path);

/** The trace-file line of a request (round-trips exactly). */
std::string requestLine(const Request &request);

/**
 * Synthesize @p count requests at mean rate @p rate (requests/sec)
 * under arrival process @p kind, sizes drawn from the default request
 * mix. All randomness draws from @p rng — the run's single seeded RNG.
 */
std::vector<Request> synthesizeRequests(int count, double rate,
                                        ArrivalKind kind, Random &rng);

} // namespace mcdla

#endif // MCDLA_SERVING_REQUEST_HH
