/**
 * @file
 * Server-side batch coalescing policies.
 *
 * When a replica goes idle with requests queued, its BatchPolicy
 * decides how many samples to coalesce into the next forward pass —
 * the batch size that feeds the batch-sensitive roofline model, so the
 * policy trades per-request latency against device efficiency:
 *
 *  - static: launch only full batches; the classic fixed-size server
 *    that leaves the device idle while a partial batch waits for
 *    stragglers (the tail flushes once the stream has drained),
 *  - dynamic: timeout-bounded — launch a full batch immediately, or
 *    whatever is queued once the oldest request has waited the
 *    timeout,
 *  - continuous: launch whatever is queued the moment the replica
 *    idles; batches grow under load and shrink when it fades
 *    (continuous batching a la modern inference servers).
 */

#ifndef MCDLA_SERVING_BATCH_POLICY_HH
#define MCDLA_SERVING_BATCH_POLICY_HH

#include <memory>

#include "sim/text.hh"

namespace mcdla
{

/** Batch-policy selector. */
enum class BatchPolicyKind
{
    Static,
    Dynamic,
    Continuous,
};

inline constexpr TokenRow<BatchPolicyKind> kBatchPolicyKindRows[] = {
    {BatchPolicyKind::Static, "static", "", nullptr,
     "full batches only; partial batches wait for stragglers (tail "
     "flushes at stream drain)"},
    {BatchPolicyKind::Dynamic, "dynamic", "", nullptr,
     "full batch, or whatever is queued once the oldest request has "
     "waited the batch timeout"},
    {BatchPolicyKind::Continuous, "continuous", "", nullptr,
     "launch whatever is queued whenever the replica idles; batches "
     "track the instantaneous load"},
};

/** --batch-policy vocabulary and the --list-batch-policies catalog. */
inline constexpr TokenTable<BatchPolicyKind> kBatchPolicyKinds{
    "batch policy", kBatchPolicyKindRows};

/** Per-replica batch coalescing decision logic. */
class BatchPolicy
{
  public:
    virtual ~BatchPolicy() = default;

    /**
     * Samples to launch now, given an idle replica with
     * @p queued_samples waiting, the oldest request having waited
     * @p oldest_wait_sec, and @p drained true once the stream has no
     * future arrivals. 0 means keep waiting. Never exceeds
     * min(queued_samples, maxBatch); every policy flushes the partial
     * tail when @p drained (nothing more can ever fill the batch).
     */
    virtual int launchSamples(int queued_samples,
                              double oldest_wait_sec,
                              bool drained) const = 0;

    /**
     * Longest a non-empty queue may wait before the policy must be
     * re-polled (the dynamic policy's timeout); < 0 when the policy
     * never launches on a timer.
     */
    virtual double maxWaitSec() const { return -1.0; }

  protected:
    explicit BatchPolicy(int max_batch) : _maxBatch(max_batch) {}

    int _maxBatch;
};

/**
 * Factory over the kind enum. @p max_batch caps every launch;
 * @p timeout_sec bounds the dynamic policy's queueing wait (ignored by
 * the other policies).
 */
std::unique_ptr<BatchPolicy> makeBatchPolicy(BatchPolicyKind kind,
                                             int max_batch,
                                             double timeout_sec);

} // namespace mcdla

#endif // MCDLA_SERVING_BATCH_POLICY_HH
