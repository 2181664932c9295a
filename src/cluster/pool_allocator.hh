/**
 * @file
 * Shared memory-node pool allocators.
 *
 * The cluster treats the capacity of every memory-node (or the host
 * DRAM, for the PCIe designs) as one disaggregated pool: each admitted
 * job's backing-store demand is carved out as a single contiguous
 * block, and a job whose block cannot be placed waits in the queue —
 * the "allocation failure → queueing" coupling between the memory tier
 * and the scheduler. Two placement disciplines are provided:
 *
 *  - first-fit over an address-ordered free list with coalescing on
 *    release (external fragmentation shows up as holes),
 *  - a buddy allocator with power-of-two blocks (fast, bounded
 *    external fragmentation, but up to 2x internal waste).
 *
 * Both expose the same occupancy/fragmentation statistics so the
 * abl_cluster sweep can compare them under identical job streams.
 */

#ifndef MCDLA_CLUSTER_POOL_ALLOCATOR_HH
#define MCDLA_CLUSTER_POOL_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/text.hh"

namespace mcdla
{

/** Pool placement discipline. */
enum class PoolAllocatorKind
{
    FirstFit, ///< Address-ordered free list, coalescing free.
    Buddy,    ///< Power-of-two buddy system.
};

inline constexpr TokenRow<PoolAllocatorKind> kPoolAllocatorKindRows[] = {
    {PoolAllocatorKind::FirstFit, "first-fit", "firstfit ff"},
    {PoolAllocatorKind::Buddy, "buddy"},
};

/** --allocator vocabulary. */
inline constexpr TokenTable<PoolAllocatorKind> kPoolAllocatorKinds{
    "pool allocator", kPoolAllocatorKindRows};

/** One carved-out block of the pool. */
struct PoolBlock
{
    std::uint64_t addr = 0;
    /** Block size actually reserved (>= the requested bytes). */
    std::uint64_t bytes = 0;
    /** Bytes the caller asked for (internal waste = bytes - request). */
    std::uint64_t requested = 0;

    bool valid() const { return bytes > 0; }
};

/** Abstract allocator over one linear pool address space. */
class MemoryPoolAllocator
{
  public:
    explicit MemoryPoolAllocator(std::uint64_t capacity);
    virtual ~MemoryPoolAllocator() = default;

    virtual const char *name() const = 0;

    /**
     * Carve @p bytes out of the pool.
     *
     * @return The placed block, or std::nullopt when no placement
     *         exists (recorded as an allocation failure).
     */
    std::optional<PoolBlock> allocate(std::uint64_t bytes);

    /** Return a block to the pool. */
    void release(const PoolBlock &block);

    /**
     * Record an allocation attempt that was abandoned before calling
     * allocate() (the scheduler saw canAllocate() fail and kept the
     * job queued). Counts toward allocationFailures().
     */
    void noteFailure() { ++_failures; }

    /** Whether allocate(bytes) would currently succeed. */
    virtual bool canAllocate(std::uint64_t bytes) const = 0;

    /** Largest single block allocate() could place right now. */
    virtual std::uint64_t largestFreeBlock() const = 0;

    /// @name Occupancy and fragmentation statistics
    /// @{
    std::uint64_t capacity() const { return _capacity; }
    std::uint64_t usedBytes() const { return _used; }
    std::uint64_t freeBytes() const { return _capacity - _used; }
    std::uint64_t peakUsedBytes() const { return _peakUsed; }
    double utilization() const;

    /**
     * External fragmentation in [0, 1]: the fraction of free capacity
     * unreachable by a single maximal allocation,
     * 1 - largestFree / free. Zero when the pool is full or empty of
     * holes.
     */
    double fragmentation() const;

    /** Bytes reserved beyond what callers asked for (buddy rounding). */
    std::uint64_t internalWasteBytes() const { return _internalWaste; }

    std::uint64_t allocationFailures() const { return _failures; }
    std::uint64_t liveAllocations() const { return _live; }
    /// @}

    /**
     * SimCheck: free-list integrity. The live blocks and the
     * allocator's free space must tile the pool exactly — no
     * overlapping blocks, free + allocated == capacity, and (buddy)
     * every free block naturally aligned to its size. Panics
     * (SimCheck[memory-pool]) on violation. Runs automatically at
     * every allocate/release while SimCheck is enabled.
     */
    virtual void simcheckVerify() const;

  protected:
    virtual std::optional<PoolBlock> doAllocate(std::uint64_t bytes) = 0;
    virtual void doRelease(const PoolBlock &block) = 0;

    /**
     * SimCheck helper: verify that @p free_spans (addr -> bytes, one
     * entry per free span) plus the live blocks tile [0, capacity())
     * with no overlap and no gap.
     */
    void simcheckVerifyTiling(
        const std::map<std::uint64_t, std::uint64_t> &free_spans) const;

  private:
    std::uint64_t _capacity;
    std::uint64_t _used = 0;
    std::uint64_t _peakUsed = 0;
    std::uint64_t _internalWaste = 0;
    std::uint64_t _failures = 0;
    std::uint64_t _live = 0;
    /** Ledger of outstanding blocks (addr -> reserved bytes) backing
        the SimCheck tiling/double-free checks. */
    std::map<std::uint64_t, std::uint64_t> _liveBlocks;
};

/** Address-ordered first-fit with coalescing on release. */
class FirstFitPoolAllocator : public MemoryPoolAllocator
{
  public:
    explicit FirstFitPoolAllocator(std::uint64_t capacity);

    const char *name() const override { return "first-fit"; }
    bool canAllocate(std::uint64_t bytes) const override;
    std::uint64_t largestFreeBlock() const override;
    void simcheckVerify() const override;

    /** Number of free holes (fragmentation diagnostics). */
    std::size_t holeCount() const { return _holes.size(); }

  protected:
    std::optional<PoolBlock> doAllocate(std::uint64_t bytes) override;
    void doRelease(const PoolBlock &block) override;

  private:
    /// addr -> size, address-ordered; invariant: no two holes adjoin.
    std::map<std::uint64_t, std::uint64_t> _holes;
};

/** Power-of-two buddy allocator. */
class BuddyPoolAllocator : public MemoryPoolAllocator
{
  public:
    /**
     * @param capacity Pool bytes; rounded down to the block
     *        granularity (a sub-minimum tail cannot be placed, so it
     *        is excluded from capacity()) and seeded as the binary
     *        decomposition of what remains (naturally aligned
     *        power-of-two chunks).
     * @param min_block Smallest block granularity (requests round up
     *        to a power of two >= this); shrunk to fit pools smaller
     *        than this.
     */
    explicit BuddyPoolAllocator(std::uint64_t capacity,
                                std::uint64_t min_block = 1ULL << 26);

    const char *name() const override { return "buddy"; }
    bool canAllocate(std::uint64_t bytes) const override;
    std::uint64_t largestFreeBlock() const override;
    void simcheckVerify() const override;

  protected:
    std::optional<PoolBlock> doAllocate(std::uint64_t bytes) override;
    void doRelease(const PoolBlock &block) override;

  private:
    int orderOf(std::uint64_t bytes) const;

    std::uint64_t _minBlock;
    /// Free lists per order (block size = _minBlock << order), each an
    /// address-ordered set for deterministic placement.
    std::vector<std::map<std::uint64_t, bool>> _free;
};

/** Factory over the kind enum. */
std::unique_ptr<MemoryPoolAllocator>
makePoolAllocator(PoolAllocatorKind kind, std::uint64_t capacity);

} // namespace mcdla

#endif // MCDLA_CLUSTER_POOL_ALLOCATOR_HH
