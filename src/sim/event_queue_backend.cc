#include "event_queue_backend.hh"

#include <algorithm>

#include "logging.hh"

namespace mcdla
{

namespace
{

struct KindToken
{
    EventQueueBackendKind kind;
    const char *token;
};

constexpr KindToken kKindTokens[] = {
    {EventQueueBackendKind::Heap, "heap"},
    {EventQueueBackendKind::Calendar, "calendar"},
};

/** Descending (when, seq): the bucket minimum lives at back(). */
bool
bucketDescending(const EventItem &a, const EventItem &b)
{
    return eventItemBefore(b, a);
}

} // namespace

const char *
eventQueueBackendToken(EventQueueBackendKind kind)
{
    for (const KindToken &entry : kKindTokens)
        if (entry.kind == kind)
            return entry.token;
    panic("event-queue backend %d has no token",
          static_cast<int>(kind));
}

EventQueueBackendKind
parseEventQueueBackendKind(const std::string &name)
{
    for (const KindToken &entry : kKindTokens)
        if (name == entry.token)
            return entry.kind;
    fatal("unknown event-queue backend '%s' (%s)", name.c_str(),
          eventQueueBackendTokenList().c_str());
}

const std::string &
eventQueueBackendTokenList()
{
    static const std::string list = [] {
        std::string tokens;
        for (const KindToken &entry : kKindTokens) {
            if (!tokens.empty())
                tokens += ", ";
            tokens += entry.token;
        }
        return tokens;
    }();
    return list;
}

std::unique_ptr<EventQueueBackend>
makeEventQueueBackend(EventQueueBackendKind kind)
{
    switch (kind) {
      case EventQueueBackendKind::Heap:
        return std::make_unique<HeapEventQueueBackend>();
      case EventQueueBackendKind::Calendar:
        return std::make_unique<CalendarEventQueueBackend>();
    }
    panic("event-queue backend %d has no factory",
          static_cast<int>(kind));
}

// ---------------------------------------------------------------------
// HeapEventQueueBackend

void
HeapEventQueueBackend::settle()
{
    const auto index = static_cast<unsigned>(__builtin_ctzll(_mask));
    std::vector<EventItem> &source = _buckets[index];
    Tick least = source.front().when;
    for (const EventItem &item : source)
        least = std::min(least, item.when);
    // Every other pending item keeps its bucket under the new base:
    // the base moves only within bucket `index`'s range.
    _base = least;
    _mask &= ~(std::uint64_t{1} << index);
    for (const EventItem &item : source)
        place(item);
    source.clear();
}

void
HeapEventQueueBackend::insertFront(const EventItem &item)
{
    const auto at = std::upper_bound(
        _front.begin() + static_cast<std::ptrdiff_t>(_frontHead),
        _front.end(), item.seq,
        [](std::uint64_t seq, const EventItem &other) {
            return seq < other.seq;
        });
    _front.insert(at, item);
}

void
HeapEventQueueBackend::clear()
{
    _front.clear();
    _frontHead = 0;
    for (std::vector<EventItem> &bucket : _buckets)
        bucket.clear();
    _mask = 0;
    _base = 0;
    _size = 0;
}

// ---------------------------------------------------------------------
// CalendarEventQueueBackend

CalendarEventQueueBackend::CalendarEventQueueBackend()
    : _buckets(kMinBuckets), _mask(kMinBuckets - 1)
{
}

void
CalendarEventQueueBackend::clear()
{
    _buckets.assign(kMinBuckets, {});
    _mask = kMinBuckets - 1;
    _width = 1;
    _count = 0;
    _lastWhen = 0;
    _minBucket = SIZE_MAX;
}

void
CalendarEventQueueBackend::push(const EventItem &item)
{
    maybeGrow();
    std::vector<EventItem> &bucket = _buckets[bucketOf(item.when)];
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), item,
                                   bucketDescending),
                  item);
    ++_count;
    _minBucket = SIZE_MAX;
}

std::size_t
CalendarEventQueueBackend::findMinBucket() const
{
    if (_count == 0)
        return SIZE_MAX;
    // One "year" scan: walk day windows forward from the last popped
    // tick. An item within its day window is the global minimum (all
    // pending items are >= _lastWhen, and any earlier item would have
    // been found in an earlier window).
    const std::size_t nbuckets = _mask + 1;
    const std::uint64_t start_day =
        static_cast<std::uint64_t>(_lastWhen) / _width;
    for (std::size_t i = 0; i < nbuckets; ++i) {
        const std::uint64_t day = start_day + i;
        const std::size_t idx =
            static_cast<std::size_t>(day) & _mask;
        const std::vector<EventItem> &bucket = _buckets[idx];
        if (bucket.empty())
            continue;
        const std::uint64_t bound = (day + 1) * _width;
        if (static_cast<std::uint64_t>(bucket.back().when) < bound)
            return idx;
    }
    // Sparse region: nothing within a year of _lastWhen. Direct scan
    // for the global minimum across all bucket minima.
    std::size_t best = SIZE_MAX;
    for (std::size_t idx = 0; idx < nbuckets; ++idx) {
        const std::vector<EventItem> &bucket = _buckets[idx];
        if (bucket.empty())
            continue;
        if (best == SIZE_MAX
            || eventItemBefore(bucket.back(), _buckets[best].back()))
            best = idx;
    }
    return best;
}

const EventItem &
CalendarEventQueueBackend::peek()
{
    if (_minBucket == SIZE_MAX)
        _minBucket = findMinBucket();
    return _buckets[_minBucket].back();
}

EventItem
CalendarEventQueueBackend::pop()
{
    if (_minBucket == SIZE_MAX)
        _minBucket = findMinBucket();
    std::vector<EventItem> &bucket = _buckets[_minBucket];
    const EventItem item = bucket.back();
    bucket.pop_back();
    --_count;
    _lastWhen = item.when;
    _minBucket = SIZE_MAX;
    maybeShrink();
    return item;
}

void
CalendarEventQueueBackend::maybeGrow()
{
    if (_count > 2 * (_mask + 1))
        resize(2 * (_mask + 1));
}

void
CalendarEventQueueBackend::maybeShrink()
{
    const std::size_t nbuckets = _mask + 1;
    if (nbuckets > kMinBuckets && _count < nbuckets / 2)
        resize(nbuckets / 2);
}

void
CalendarEventQueueBackend::resize(std::size_t nbuckets)
{
    std::vector<EventItem> items;
    items.reserve(_count);
    for (std::vector<EventItem> &bucket : _buckets) {
        items.insert(items.end(), bucket.begin(), bucket.end());
        bucket.clear();
    }
    _buckets.resize(nbuckets);
    _mask = nbuckets - 1;
    if (!items.empty()) {
        Tick min_when = items.front().when;
        Tick max_when = items.front().when;
        for (const EventItem &item : items) {
            min_when = std::min(min_when, item.when);
            max_when = std::max(max_when, item.when);
        }
        // Width ~= twice the mean inter-event gap: a couple of items
        // per day window on a uniform distribution.
        const std::uint64_t span =
            static_cast<std::uint64_t>(max_when - min_when);
        _width = std::max<std::uint64_t>(1, 2 * span / items.size());
        for (const EventItem &item : items)
            _buckets[bucketOf(item.when)].push_back(item);
        for (std::vector<EventItem> &bucket : _buckets)
            std::sort(bucket.begin(), bucket.end(), bucketDescending);
    }
    _minBucket = SIZE_MAX;
}

} // namespace mcdla
