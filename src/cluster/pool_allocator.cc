/**
 * @file
 * Pool allocator implementations.
 */

#include "cluster/pool_allocator.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simcheck.hh"

namespace mcdla
{

MemoryPoolAllocator::MemoryPoolAllocator(std::uint64_t capacity)
    : _capacity(capacity)
{
    if (capacity == 0)
        fatal("memory pool requires non-zero capacity");
}

std::optional<PoolBlock>
MemoryPoolAllocator::allocate(std::uint64_t bytes)
{
    if (bytes == 0)
        fatal("pool allocation of zero bytes");
    std::optional<PoolBlock> block = doAllocate(bytes);
    if (!block) {
        ++_failures;
        return std::nullopt;
    }
    block->requested = bytes;
    _used += block->bytes;
    _peakUsed = std::max(_peakUsed, _used);
    _internalWaste += block->bytes - bytes;
    ++_live;
    _liveBlocks[block->addr] = block->bytes;
    if (simcheck::enabled())
        simcheckVerify();
    return block;
}

void
MemoryPoolAllocator::release(const PoolBlock &block)
{
    if (!block.valid())
        panic("releasing an invalid pool block");
    // The ledger check subsumes the old releasing-more-than-allocated
    // underflow guard: an outstanding block's bytes are always <= _used.
    auto it = _liveBlocks.find(block.addr);
    if (it == _liveBlocks.end() || it->second != block.bytes)
        simcheck::failUntimed(
            "memory-pool",
            "%s release of [%llu, +%llu) which is not an outstanding "
            "block (double free or corrupted handle)",
            name(), static_cast<unsigned long long>(block.addr),
            static_cast<unsigned long long>(block.bytes));
    _liveBlocks.erase(it);
    doRelease(block);
    _used -= block.bytes;
    _internalWaste -= block.bytes - block.requested;
    --_live;
    if (simcheck::enabled())
        simcheckVerify();
}

double
MemoryPoolAllocator::utilization() const
{
    return static_cast<double>(_used) / static_cast<double>(_capacity);
}

void
MemoryPoolAllocator::simcheckVerifyTiling(
    const std::map<std::uint64_t, std::uint64_t> &free_spans) const
{
    // Merge-walk the live blocks and free spans in address order: they
    // must tile [0, capacity()) exactly. One pass subsumes every
    // free-list law — no overlapping blocks, no block/hole overlap,
    // no lost bytes, free + allocated == capacity.
    auto live = _liveBlocks.begin();
    auto free_it = free_spans.begin();
    std::uint64_t cursor = 0;
    std::uint64_t free_total = 0;
    while (live != _liveBlocks.end() || free_it != free_spans.end()) {
        const bool take_live = live != _liveBlocks.end()
            && (free_it == free_spans.end()
                || live->first < free_it->first);
        const std::uint64_t addr =
            take_live ? live->first : free_it->first;
        const std::uint64_t bytes =
            take_live ? live->second : free_it->second;
        if (addr != cursor)
            simcheck::failUntimed(
                "memory-pool",
                "%s %s span [%llu, +%llu) %s the previous span ending "
                "at %llu (overlap or lost bytes)",
                name(), take_live ? "allocated" : "free",
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(bytes),
                addr < cursor ? "overlaps" : "leaves a gap after",
                static_cast<unsigned long long>(cursor));
        cursor = addr + bytes;
        if (!take_live)
            free_total += bytes;
        if (take_live)
            ++live;
        else
            ++free_it;
    }
    if (cursor != _capacity)
        simcheck::failUntimed(
            "memory-pool",
            "%s spans cover [0, %llu) but the pool capacity is %llu",
            name(), static_cast<unsigned long long>(cursor),
            static_cast<unsigned long long>(_capacity));
    if (free_total != _capacity - _used)
        simcheck::failUntimed(
            "memory-pool",
            "%s free bytes %llu != capacity %llu - used %llu",
            name(), static_cast<unsigned long long>(free_total),
            static_cast<unsigned long long>(_capacity),
            static_cast<unsigned long long>(_used));
}

void
MemoryPoolAllocator::simcheckVerify() const
{
    std::uint64_t allocated = 0;
    for (const auto &[addr, bytes] : _liveBlocks) {
        (void)addr;
        allocated += bytes;
    }
    if (allocated != _used)
        simcheck::failUntimed(
            "memory-pool",
            "%s outstanding blocks hold %llu bytes but usedBytes() is "
            "%llu",
            name(), static_cast<unsigned long long>(allocated),
            static_cast<unsigned long long>(_used));
    if (_liveBlocks.size() != _live)
        simcheck::failUntimed(
            "memory-pool",
            "%s tracks %zu outstanding blocks but liveAllocations() "
            "is %llu",
            name(), _liveBlocks.size(),
            static_cast<unsigned long long>(_live));
}

double
MemoryPoolAllocator::fragmentation() const
{
    const std::uint64_t free = freeBytes();
    if (free == 0)
        return 0.0;
    const std::uint64_t largest = largestFreeBlock();
    return 1.0
        - static_cast<double>(largest) / static_cast<double>(free);
}

// ------------------------------------------------------------ first-fit

FirstFitPoolAllocator::FirstFitPoolAllocator(std::uint64_t capacity)
    : MemoryPoolAllocator(capacity)
{
    _holes.emplace(0, capacity);
}

bool
FirstFitPoolAllocator::canAllocate(std::uint64_t bytes) const
{
    for (const auto &[addr, size] : _holes)
        if (size >= bytes)
            return true;
    return false;
}

std::uint64_t
FirstFitPoolAllocator::largestFreeBlock() const
{
    std::uint64_t largest = 0;
    for (const auto &[addr, size] : _holes)
        largest = std::max(largest, size);
    return largest;
}

void
FirstFitPoolAllocator::simcheckVerify() const
{
    MemoryPoolAllocator::simcheckVerify();
    // Holes must be coalesced: two adjoining holes mean doRelease's
    // merge logic broke down.
    for (auto it = _holes.begin(); it != _holes.end(); ++it) {
        auto next = std::next(it);
        if (next != _holes.end()
            && it->first + it->second == next->first)
            simcheck::failUntimed(
                "memory-pool",
                "first-fit holes [%llu, +%llu) and [%llu, +%llu) "
                "adjoin but were not coalesced",
                static_cast<unsigned long long>(it->first),
                static_cast<unsigned long long>(it->second),
                static_cast<unsigned long long>(next->first),
                static_cast<unsigned long long>(next->second));
    }
    simcheckVerifyTiling(_holes);
}

std::optional<PoolBlock>
FirstFitPoolAllocator::doAllocate(std::uint64_t bytes)
{
    for (auto it = _holes.begin(); it != _holes.end(); ++it) {
        if (it->second < bytes)
            continue;
        PoolBlock block;
        block.addr = it->first;
        block.bytes = bytes;
        const std::uint64_t left = it->second - bytes;
        const std::uint64_t tail = it->first + bytes;
        _holes.erase(it);
        if (left > 0)
            _holes.emplace(tail, left);
        return block;
    }
    return std::nullopt;
}

void
FirstFitPoolAllocator::doRelease(const PoolBlock &block)
{
    auto [it, inserted] = _holes.emplace(block.addr, block.bytes);
    if (!inserted)
        panic("first-fit double free at %llu",
              static_cast<unsigned long long>(block.addr));

    // Coalesce with the successor, then the predecessor.
    auto next = std::next(it);
    if (next != _holes.end()
        && it->first + it->second == next->first) {
        it->second += next->second;
        _holes.erase(next);
    }
    if (it != _holes.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            _holes.erase(it);
        }
    }
}

// ---------------------------------------------------------------- buddy

namespace
{

/** The effective buddy granularity: shrunk to fit pools smaller than
    the requested minimum block (e.g. the token 1-byte pool of designs
    without a backing store). */
std::uint64_t
buddyMinBlock(std::uint64_t capacity, std::uint64_t min_block)
{
    if (min_block == 0 || (min_block & (min_block - 1)) != 0)
        fatal("buddy minimum block must be a power of two");
    while (min_block > capacity && min_block > 1)
        min_block >>= 1;
    return min_block;
}

/** Capacity rounded down to the buddy granularity; the sub-minimum
    tail can never be placed, so it is excluded from the pool's
    capacity instead of masquerading as free space. */
std::uint64_t
buddyUsableCapacity(std::uint64_t capacity, std::uint64_t min_block)
{
    min_block = buddyMinBlock(capacity, min_block);
    const std::uint64_t usable = capacity / min_block * min_block;
    if (usable < capacity) {
        warn("buddy pool: dropping %llu tail bytes below the %llu "
             "minimum block",
             static_cast<unsigned long long>(capacity - usable),
             static_cast<unsigned long long>(min_block));
    }
    return usable;
}

} // anonymous namespace

BuddyPoolAllocator::BuddyPoolAllocator(std::uint64_t capacity,
                                       std::uint64_t min_block)
    : MemoryPoolAllocator(buddyUsableCapacity(capacity, min_block)),
      _minBlock(buddyMinBlock(capacity, min_block))
{
    const std::uint64_t usable = this->capacity();

    // Seed the free lists with the binary decomposition of the
    // capacity: descending powers of two laid from address zero are
    // naturally aligned, so buddy arithmetic stays inside each seed.
    int max_order = 0;
    while ((_minBlock << (max_order + 1)) <= usable)
        ++max_order;
    _free.assign(static_cast<std::size_t>(max_order) + 1, {});

    std::uint64_t addr = 0;
    for (int order = max_order; order >= 0; --order) {
        const std::uint64_t size = _minBlock << order;
        while (usable - addr >= size) {
            _free[static_cast<std::size_t>(order)].emplace(addr, true);
            addr += size;
        }
    }
}

int
BuddyPoolAllocator::orderOf(std::uint64_t bytes) const
{
    int order = 0;
    while ((_minBlock << order) < bytes) {
        ++order;
        if (static_cast<std::size_t>(order) >= _free.size())
            return -1; // larger than the largest possible block
    }
    return order;
}

bool
BuddyPoolAllocator::canAllocate(std::uint64_t bytes) const
{
    const int order = orderOf(bytes);
    if (order < 0)
        return false;
    for (std::size_t o = static_cast<std::size_t>(order);
         o < _free.size(); ++o)
        if (!_free[o].empty())
            return true;
    return false;
}

std::uint64_t
BuddyPoolAllocator::largestFreeBlock() const
{
    for (std::size_t o = _free.size(); o-- > 0;)
        if (!_free[o].empty())
            return _minBlock << o;
    return 0;
}

void
BuddyPoolAllocator::simcheckVerify() const
{
    MemoryPoolAllocator::simcheckVerify();
    std::map<std::uint64_t, std::uint64_t> free_spans;
    for (std::size_t order = 0; order < _free.size(); ++order) {
        const std::uint64_t size = _minBlock << order;
        for (const auto &[addr, tag] : _free[order]) {
            (void)tag;
            if (addr % size != 0)
                simcheck::failUntimed(
                    "memory-pool",
                    "buddy free block [%llu, +%llu) is not naturally "
                    "aligned to its size",
                    static_cast<unsigned long long>(addr),
                    static_cast<unsigned long long>(size));
            if (!free_spans.emplace(addr, size).second)
                simcheck::failUntimed(
                    "memory-pool",
                    "buddy address %llu is on two free lists",
                    static_cast<unsigned long long>(addr));
        }
    }
    simcheckVerifyTiling(free_spans);
}

std::optional<PoolBlock>
BuddyPoolAllocator::doAllocate(std::uint64_t bytes)
{
    const int want = orderOf(bytes);
    if (want < 0)
        return std::nullopt;

    // Find the smallest free order that can serve the request.
    std::size_t have = static_cast<std::size_t>(want);
    while (have < _free.size() && _free[have].empty())
        ++have;
    if (have >= _free.size())
        return std::nullopt;

    std::uint64_t addr = _free[have].begin()->first;
    _free[have].erase(_free[have].begin());

    // Split down to the wanted order, freeing the upper halves.
    while (have > static_cast<std::size_t>(want)) {
        --have;
        _free[have].emplace(addr + (_minBlock << have), true);
    }

    PoolBlock block;
    block.addr = addr;
    block.bytes = _minBlock << static_cast<std::size_t>(want);
    return block;
}

void
BuddyPoolAllocator::doRelease(const PoolBlock &block)
{
    int order = orderOf(block.bytes);
    if (order < 0 || (_minBlock << order) != block.bytes)
        panic("buddy release of a non-buddy block size %llu",
              static_cast<unsigned long long>(block.bytes));

    std::uint64_t addr = block.addr;
    while (static_cast<std::size_t>(order) + 1 < _free.size()) {
        const std::uint64_t size = _minBlock << order;
        const std::uint64_t buddy = addr ^ size;
        auto &list = _free[static_cast<std::size_t>(order)];
        auto it = list.find(buddy);
        if (it == list.end())
            break;
        list.erase(it);
        addr = std::min(addr, buddy);
        ++order;
    }
    _free[static_cast<std::size_t>(order)].emplace(addr, true);
}

std::unique_ptr<MemoryPoolAllocator>
makePoolAllocator(PoolAllocatorKind kind, std::uint64_t capacity)
{
    switch (kind) {
      case PoolAllocatorKind::FirstFit:
        return std::make_unique<FirstFitPoolAllocator>(capacity);
      case PoolAllocatorKind::Buddy:
        return std::make_unique<BuddyPoolAllocator>(capacity);
    }
    panic("unknown pool allocator kind %d", static_cast<int>(kind));
}

} // namespace mcdla
