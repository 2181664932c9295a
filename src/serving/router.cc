/**
 * @file
 * Replica router implementations.
 */

#include "serving/router.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mcdla
{

namespace
{

class RoundRobinRouter : public ReplicaRouter
{
  public:
    std::size_t
    route(const std::vector<ReplicaLoad> &replicas, int) override
    {
        return _cursor++ % replicas.size();
    }

  private:
    std::size_t _cursor = 0;
};

class LeastLoadedRouter : public ReplicaRouter
{
  public:
    std::size_t
    route(const std::vector<ReplicaLoad> &replicas, int) override
    {
        std::size_t best = 0;
        int best_load = load(replicas[0]);
        for (std::size_t r = 1; r < replicas.size(); ++r) {
            const int l = load(replicas[r]);
            if (l < best_load) {
                best = r;
                best_load = l;
            }
        }
        return best;
    }

  private:
    static int
    load(const ReplicaLoad &replica)
    {
        return replica.queuedSamples + replica.inflightSamples;
    }
};

class SloAwareRouter : public ReplicaRouter
{
  public:
    std::size_t
    route(const std::vector<ReplicaLoad> &replicas, int samples)
        override
    {
        // Before any replica has an observed rate the prediction
        // degenerates to busy-remainder == 0 everywhere; break those
        // warmup ties by queue depth so the policy starts out as
        // least-loaded rather than always-replica-0.
        std::size_t best = 0;
        for (std::size_t r = 1; r < replicas.size(); ++r) {
            const double a = replicas[r].predictedLatencySec(samples);
            const double b =
                replicas[best].predictedLatencySec(samples);
            if (a < b
                || (a == b
                    && replicas[r].queuedSamples
                            + replicas[r].inflightSamples
                        < replicas[best].queuedSamples
                            + replicas[best].inflightSamples))
                best = r;
        }
        return best;
    }
};

} // anonymous namespace

std::unique_ptr<ReplicaRouter>
makeRouter(RouterKind kind)
{
    switch (kind) {
      case RouterKind::RoundRobin:
        return std::make_unique<RoundRobinRouter>();
      case RouterKind::LeastLoaded:
        return std::make_unique<LeastLoadedRouter>();
      case RouterKind::SloAware:
        return std::make_unique<SloAwareRouter>();
    }
    panic("router %d has no factory", static_cast<int>(kind));
}

} // namespace mcdla
