/**
 * @file
 * Batch policy implementations.
 */

#include "serving/batch_policy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mcdla
{

namespace
{

class StaticBatchPolicy : public BatchPolicy
{
  public:
    explicit StaticBatchPolicy(int max_batch) : BatchPolicy(max_batch)
    {}

    int
    launchSamples(int queued_samples, double, bool drained) const
        override
    {
        if (queued_samples >= _maxBatch)
            return _maxBatch;
        return drained ? queued_samples : 0;
    }
};

class DynamicBatchPolicy : public BatchPolicy
{
  public:
    DynamicBatchPolicy(int max_batch, double timeout_sec)
        : BatchPolicy(max_batch), _timeoutSec(timeout_sec)
    {}

    int
    launchSamples(int queued_samples, double oldest_wait_sec,
                  bool drained) const override
    {
        if (queued_samples >= _maxBatch)
            return _maxBatch;
        if (drained || oldest_wait_sec >= _timeoutSec)
            return queued_samples;
        return 0;
    }

    double maxWaitSec() const override { return _timeoutSec; }

  private:
    double _timeoutSec;
};

class ContinuousBatchPolicy : public BatchPolicy
{
  public:
    explicit ContinuousBatchPolicy(int max_batch)
        : BatchPolicy(max_batch)
    {}

    int
    launchSamples(int queued_samples, double, bool) const override
    {
        return std::min(queued_samples, _maxBatch);
    }
};

} // anonymous namespace

std::unique_ptr<BatchPolicy>
makeBatchPolicy(BatchPolicyKind kind, int max_batch, double timeout_sec)
{
    if (max_batch < 1)
        fatal("batch policy requires a positive max batch (got %d)",
              max_batch);
    switch (kind) {
      case BatchPolicyKind::Static:
        return std::make_unique<StaticBatchPolicy>(max_batch);
      case BatchPolicyKind::Dynamic:
        if (timeout_sec < 0.0)
            fatal("dynamic batch policy requires a non-negative "
                  "timeout (got %g s)", timeout_sec);
        return std::make_unique<DynamicBatchPolicy>(max_batch,
                                                    timeout_sec);
      case BatchPolicyKind::Continuous:
        return std::make_unique<ContinuousBatchPolicy>(max_batch);
    }
    panic("batch policy %d has no factory", static_cast<int>(kind));
}

} // namespace mcdla
