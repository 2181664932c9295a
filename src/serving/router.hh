/**
 * @file
 * Replica routing: which replica an arriving request joins.
 *
 * The router sees a load view of every replica — queue depth, the
 * in-flight batch's predicted remaining time, and the replica's
 * observed per-sample service time (an EWMA the serving cluster keeps
 * per replica) — and names the queue to join:
 *
 *  - round-robin: cyclic, load-blind (the FIFO-ish strawman),
 *  - least-loaded: fewest queued+in-flight samples; blind to the fact
 *    that replicas co-located next to a training job run slower,
 *  - slo-aware: lowest *predicted completion time* using each
 *    replica's own observed service rate, so traffic drains away from
 *    replicas whose memory nodes a training job is hammering. The
 *    same prediction drives admission control: when even the best
 *    replica would blow the SLO by the configured grace factor, the
 *    request is shed at the door instead of poisoning every queue.
 */

#ifndef MCDLA_SERVING_ROUTER_HH
#define MCDLA_SERVING_ROUTER_HH

#include <memory>
#include <vector>

#include "sim/text.hh"

namespace mcdla
{

/** Router policy selector. */
enum class RouterKind
{
    RoundRobin,
    LeastLoaded,
    SloAware,
};

inline constexpr TokenRow<RouterKind> kRouterKindRows[] = {
    {RouterKind::RoundRobin, "rr", "round-robin", nullptr,
     "cyclic assignment, load-blind"},
    {RouterKind::LeastLoaded, "least-loaded", "ll", nullptr,
     "fewest queued+in-flight samples; blind to per-replica service "
     "speed"},
    {RouterKind::SloAware, "slo", "slo-aware", nullptr,
     "lowest predicted completion using each replica's observed "
     "service rate; drives SLO admission"},
};

/** --router vocabulary and its --list-batch-policies catalog. */
inline constexpr TokenTable<RouterKind> kRouterKinds{"router",
                                                     kRouterKindRows};

/** The router's view of one replica's instantaneous load. */
struct ReplicaLoad
{
    /** Samples waiting in the replica's queue. */
    int queuedSamples = 0;
    /** Samples in the in-flight batch (0 when idle). */
    int inflightSamples = 0;
    /** Predicted seconds until the in-flight batch completes. */
    double busyRemainingSec = 0.0;
    /**
     * Observed per-sample service time (EWMA over completed batches);
     * 0 until the replica has served its first batch.
     */
    double ewmaPerSampleSec = 0.0;

    /**
     * Predicted completion time of a @p samples -sample request
     * joining this replica now: the in-flight remainder plus all
     * queued work ahead of it, priced at the observed service rate.
     */
    double
    predictedLatencySec(int samples) const
    {
        return busyRemainingSec
            + static_cast<double>(queuedSamples + samples)
            * ewmaPerSampleSec;
    }
};

/** Request-to-replica routing policy. */
class ReplicaRouter
{
  public:
    virtual ~ReplicaRouter() = default;

    /**
     * Replica index the @p samples -sample request joins, given
     * @p replicas (never empty). Stateful policies (round-robin)
     * advance their cursor per call.
     */
    virtual std::size_t route(const std::vector<ReplicaLoad> &replicas,
                              int samples) = 0;
};

/** Factory over the kind enum. */
std::unique_ptr<ReplicaRouter> makeRouter(RouterKind kind);

} // namespace mcdla

#endif // MCDLA_SERVING_ROUTER_HH
