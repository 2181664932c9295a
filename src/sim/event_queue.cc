/**
 * @file
 * EventQueue implementation.
 */

#include "event_queue.hh"

#include <algorithm>

#include "causal.hh"
#include "cycle_timer.hh"
#include "logging.hh"
#include "profiler.hh"
#include "simcheck.hh"

namespace mcdla
{

EventQueue::EventQueue(EventQueueBackendKind kind) : _backendKind(kind)
{
    if (kind != EventQueueBackendKind::Heap)
        _backend = makeEventQueueBackend(kind);
}

EventQueue::~EventQueue() = default;

void
EventQueue::setBackend(EventQueueBackendKind kind)
{
    if (!keysEmpty() || _executed != 0 || _now != 0 || _live != 0)
        panic("EventQueue::setBackend(%s) on a non-pristine queue "
              "(%zu pending, %llu executed, now=%llu)",
              eventQueueBackendToken(kind), _live,
              static_cast<unsigned long long>(_executed),
              static_cast<unsigned long long>(_now));
    _backendKind = kind;
    _backend = kind == EventQueueBackendKind::Heap
        ? nullptr
        : makeEventQueueBackend(kind);
}

namespace
{

/** Publishes the executing event's seq (EventQueue::currentSeq())
    for as long as the event runs, unwinding included. */
class CurrentSeqScope
{
  public:
    CurrentSeqScope(std::uint64_t &current, std::uint64_t seq)
        : _current(current)
    {
        _current = seq;
    }

    ~CurrentSeqScope() { _current = UINT64_MAX; }

    CurrentSeqScope(const CurrentSeqScope &) = delete;
    CurrentSeqScope &operator=(const CurrentSeqScope &) = delete;

  private:
    std::uint64_t &_current;
};

/** The monotonic-time check of every execute, under SimCheck. */
void
failPastExecute(Tick now, Tick when, const std::string &label)
{
    simcheck::fail("event-queue", now,
                   "event '%s' fires at tick %llu, in the past "
                   "(time must be monotonic)",
                   label.c_str(), static_cast<unsigned long long>(when));
}

} // namespace

Tick
EventQueue::clampPast(Tick when, const std::string &label)
{
    // Scheduling in the past is a component bug: under SimCheck it is
    // a hard error; otherwise the event is clamped to now() (with a
    // warning) so it at least fires in scheduling order instead of
    // silently reordering history.
    if (simcheck::enabled())
        simcheck::fail("event-queue", _now,
                       "scheduling event '%s' at tick %llu before now",
                       label.c_str(),
                       static_cast<unsigned long long>(when));
    warn("scheduling event '%s' at tick %llu before now (%llu); "
         "clamping to now",
         label.c_str(), static_cast<unsigned long long>(when),
         static_cast<unsigned long long>(_now));
    return _now;
}

Tick
EventQueue::clampPast(Tick when, std::uint32_t owned_key,
                      std::uint64_t seq)
{
    std::string label;
    appendOwnedLabel(owned_key, seq, label);
    return clampPast(when, label);
}

Tick
EventQueue::reservedPast(Tick when, std::uint64_t seq,
                         const std::string &label)
{
    // A reserved key must still lie ahead: at or before the executing
    // event it can no longer run where the reservation put it.
    if (simcheck::enabled())
        simcheck::fail("event-queue", _now,
                       "scheduling event '%s' at reserved key (%llu, "
                       "%llu), not after the executing event's (%llu, "
                       "%llu)",
                       label.c_str(),
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(_now),
                       static_cast<unsigned long long>(_currentSeq));
    warn("scheduling event '%s' at reserved key (%llu, %llu) before "
         "the executing event; running it next",
         label.c_str(), static_cast<unsigned long long>(when),
         static_cast<unsigned long long>(seq));
    return std::max(when, _now);
}

Tick
EventQueue::reservedPast(Tick when, std::uint64_t seq,
                         std::uint32_t owned_key)
{
    std::string label;
    appendOwnedLabel(owned_key, seq, label);
    return reservedPast(when, seq, label);
}

void
EventQueue::appendOwnedLabel(std::uint32_t key, std::uint64_t seq,
                             std::string &out) const
{
    ownerOf(key).appendOwnedLabel(kindOf(key), seq, out);
}

void
EventQueue::appendSlotLabel(const Slot &slot, std::uint64_t seq,
                            std::string &out) const
{
    if (slot.owned != 0)
        appendOwnedLabel(slot.owned, seq, out);
    else
        slot.label.appendTo(out);
}

void
EventQueue::noteScheduled()
{
    _profiler->noteSchedule(keyCount());
}

EventQueue::OwnerId
EventQueue::registerOwner(EventOwner &owner)
{
    if (_owners.size() == kMaxOwners)
        fatal("event queue: more than %u event owners",
              static_cast<unsigned>(kMaxOwners));
    _owners.push_back(&owner);
    return static_cast<OwnerId>(_owners.size() - 1);
}

std::uint32_t
EventQueue::recordOwned(std::uint32_t key, std::uint64_t seq)
{
    const std::uint32_t slot_index = allocSlot();
    Slot &slot = slotAt(slot_index);
    slot.owned = key;
    slot.weak = false;
    slot.cancelled = false;
    slot.allocated = true;
    _schedLabelScratch.clear();
    appendOwnedLabel(key, seq, _schedLabelScratch);
    slot.causalNode =
        _causal->noteSchedule(_now, _schedLabelScratch, false);
    return slot_index;
}

EventId
EventQueue::scheduleEntry(Tick when, std::uint64_t seq, Callback &&cb,
                          EventLabel &&label, bool weak)
{
    if (when < _now)
        when = clampPast(when, label.str());
    if (!cb)
        panic("scheduling event '%s' with empty callback",
              label.str().c_str());
    const std::uint32_t slot_index = allocSlot();
    Slot &slot = slotAt(slot_index);
    slot.cb = std::move(cb);
    slot.weak = weak;
    slot.cancelled = false;
    slot.allocated = true;
    slot.causalNode = -1;
    if (_causal) {
        _schedLabelScratch.clear();
        label.appendTo(_schedLabelScratch);
        slot.causalNode = _causal->noteSchedule(_now, _schedLabelScratch,
                                                weak);
    }
    slot.label = std::move(label);
    pushKey(EventItem{when, seq, slot_index});
    ++_live;
    if (weak)
        ++_weakLive;
    if (_profiler)
        _profiler->noteSchedule(keyCount());
    return makeId(slot.gen, slot_index);
}

EventId
EventQueue::schedule(Tick when, Callback &&cb, EventLabel &&label)
{
    return scheduleEntry(when, _nextSeq++, std::move(cb),
                         std::move(label), false);
}

EventId
EventQueue::scheduleWeak(Tick when, Callback &&cb, EventLabel &&label)
{
    return scheduleEntry(when, _nextSeq++, std::move(cb),
                         std::move(label), true);
}

EventId
EventQueue::scheduleAt(Tick when, std::uint64_t seq, Callback &&cb,
                       EventLabel &&label)
{
    assert(seq < _nextSeq);
    if (when < _now || (when == _now && seq <= _currentSeq))
        when = reservedPast(when, seq, label.str());
    return scheduleEntry(when, seq, std::move(cb), std::move(label),
                         false);
}

std::uint32_t
EventQueue::allocSlot()
{
    if (!_freeSlots.empty()) {
        const std::uint32_t index = _freeSlots.back();
        _freeSlots.pop_back();
        return index;
    }
    if (_slotCount == _slotChunks.size() * kSlotChunkSize) {
        if (_slotCount == kOwnedTag)
            fatal("event queue: more than %u pending events",
                  static_cast<unsigned>(kOwnedTag));
        _slotChunks.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    return static_cast<std::uint32_t>(_slotCount++);
}

void
EventQueue::retireSlot(Slot &slot)
{
    slot.allocated = false;
    if (++slot.gen == 0)
        slot.gen = 1; // Skip 0 on wrap: ids of gen 0 are invalid.
}

void
EventQueue::recycleSlot(std::uint32_t index)
{
    Slot &slot = slotAt(index);
    slot.cb = Callback();
    slot.label = EventLabel();
    slot.owned = 0;
    slot.causalNode = -1;
    slot.weak = false;
    slot.cancelled = false;
    _freeSlots.push_back(index);
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    retireSlot(slotAt(index));
    recycleSlot(index);
}

bool
EventQueue::deschedule(EventId id)
{
    if (id == invalidEventId)
        return false;
    const std::uint32_t slot_index = slotOf(id);
    const std::uint32_t gen = genOf(id);
    if (slot_index >= _slotCount)
        return false;
    Slot &slot = slotAt(slot_index);
    // A stale handle — the event already executed (slot retired at pop
    // time, generation bumped) or was already cancelled — is refused
    // without touching any state.
    if (!slot.allocated || slot.gen != gen || slot.cancelled)
        return false;
    // Tombstone: the backend item stays where it is and is discarded
    // when popped; the payload is destroyed right here so captures
    // (and the slot's share of pool memory) free immediately.
    slot.cancelled = true;
    slot.cb = Callback();
    slot.label = EventLabel();
    --_live;
    if (slot.weak)
        --_weakLive;
    if (_profiler)
        _profiler->noteDeschedule();
    if (_causal)
        _causal->noteDeschedule(slot.causalNode);
    return true;
}

void
EventQueue::executeItem(const EventItem &item)
{
    Slot &slot = slotAt(item.slot);
    if (simcheck::enabled() && item.when < _now) {
        std::string label;
        appendSlotLabel(slot, item.seq, label);
        failPastExecute(_now, item.when, label);
    }
    _now = item.when;
    ++_executed;
    const CurrentSeqScope current(_currentSeq, item.seq);
    // Run the callback where it sits: slot chunks never move, so
    // scheduling from inside (even growing the pool) leaves it in
    // place. The slot is retired first, so the callback's own id is
    // stale (a self-deschedule is refused) and a reset() from inside
    // skips it; it joins the free list only once the call is over,
    // unwinding included.
    retireSlot(slot);
    struct Recycle
    {
        EventQueue &eq;
        std::uint32_t index;

        ~Recycle() { eq.recycleSlot(index); }
    } recycle{*this, item.slot};
    if (_causal)
        _causal->noteExecute(slot.causalNode, _now);
    if (_profiler) {
        _execLabelScratch.clear();
        appendSlotLabel(slot, item.seq, _execLabelScratch);
        const std::uint64_t t0 = CycleTimer::now();
        fire(slot);
        const std::uint64_t t1 = CycleTimer::now();
        _profiler->noteExecute(_execLabelScratch, _now,
                               CycleTimer::deltaToNs(t1 - t0));
    } else {
        fire(slot);
    }
    if (_causal)
        _causal->noteExecuteEnd();
}

void
EventQueue::executeObservedOwned(const EventItem &item)
{
    EventOwner &owner = ownerOf(item.slot);
    const unsigned kind = kindOf(item.slot);
    // An owned key only reaches here with a recorder attached if it
    // was scheduled before the attach: like a callback scheduled then,
    // it has no causal node.
    if (_causal)
        _causal->noteExecute(-1, _now);
    if (_profiler) {
        _execLabelScratch.clear();
        owner.appendOwnedLabel(kind, item.seq, _execLabelScratch);
        const std::uint64_t t0 = CycleTimer::now();
        owner.fireOwnedEvent(kind);
        const std::uint64_t t1 = CycleTimer::now();
        _profiler->noteExecute(_execLabelScratch, _now,
                               CycleTimer::deltaToNs(t1 - t0));
    } else {
        owner.fireOwnedEvent(kind);
    }
    if (_causal)
        _causal->noteExecuteEnd();
}

inline void
EventQueue::executeOwned(const EventItem &item)
{
    if (simcheck::enabled() && item.when < _now) {
        std::string label;
        appendOwnedLabel(item.slot, item.seq, label);
        failPastExecute(_now, item.when, label);
    }
    _now = item.when;
    ++_executed;
    const CurrentSeqScope current(_currentSeq, item.seq);
    if (_profiler || _causal)
        executeObservedOwned(item);
    else
        ownerOf(item.slot).fireOwnedEvent(kindOf(item.slot));
}

void
EventQueue::discardPending()
{
    if (_backend)
        _backend->clear();
    else
        _heap.clear();
    for (std::size_t i = 0; i < _slotCount; ++i)
        if (slotAt(static_cast<std::uint32_t>(i)).allocated)
            releaseSlot(static_cast<std::uint32_t>(i));
    _live = 0;
    _weakLive = 0;
}

bool
EventQueue::step()
{
    while (!keysEmpty()) {
        const EventItem head = peekKey();
        if (head.slot & kOwnedTag) {
            // Never cancelled, never weak: a pending owned key keeps
            // _live above _weakLive, so it always runs.
            popKey();
            --_live;
            executeOwned(head);
            return true;
        }
        if (slotAt(head.slot).cancelled) {
            popKey();
            releaseSlot(head.slot);
            continue;
        }
        if (_live == _weakLive) {
            // Only weak (background) events remain: the simulation
            // proper is over. Drop them without advancing time.
            discardPending();
            return false;
        }
        popKey();
        --_live;
        if (slotAt(head.slot).weak)
            --_weakLive;
        executeItem(head);
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

void
EventQueue::reset()
{
    discardPending();
    _now = 0;
    _nextSeq = 0;
    _executed = 0;
}

} // namespace mcdla
