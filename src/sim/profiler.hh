/**
 * @file
 * Wall-clock profiler for the DES kernel.
 *
 * Attached to an EventQueue (EventQueue::setProfiler), it attributes
 * *host* time — not simulated time — to event labels by timing each
 * callback inside executeHead, and tracks kernel health counters:
 * events/sec, peak heap depth, schedule counts.
 * `mcdla_sim --profile` prints the report; `mcdla_sim
 * --audit-determinism` pins its event count, peak depth and stream hash
 * (the golden_audit test); and perfbench's `observer.profiler_x`
 * measures what attaching it costs.
 */

#ifndef MCDLA_SIM_PROFILER_HH
#define MCDLA_SIM_PROFILER_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/units.hh"

namespace mcdla
{

/** Host-time accounting for one event label. */
struct ProfiledLabel
{
    std::uint64_t count = 0;
    std::uint64_t wallNs = 0;
};

/**
 * Collects per-label wall time and kernel counters from an EventQueue.
 * Attach before run(); all counters accumulate for the profiler's
 * lifetime.
 */
class DesProfiler
{
  public:
    DesProfiler() = default;

    // The label memo points into _labels; drop it when the profiler
    // is copied or moved so it can never reference another instance.
    DesProfiler(const DesProfiler &other) { *this = other; }

    DesProfiler &
    operator=(const DesProfiler &other)
    {
        if (this != &other) {
            copyCounters(other);
            _labels = other._labels;
            _lastKey.clear();
            _last = nullptr;
        }
        return *this;
    }

    DesProfiler(DesProfiler &&other) noexcept
    {
        *this = std::move(other);
    }

    DesProfiler &
    operator=(DesProfiler &&other) noexcept
    {
        if (this != &other) {
            copyCounters(other);
            _labels = std::move(other._labels);
            _lastKey.clear();
            _last = nullptr;
            other._last = nullptr;
        }
        return *this;
    }

    /// @name EventQueue hooks
    /// @{
    void
    noteSchedule(std::size_t heap_depth)
    {
        ++_schedules;
        if (heap_depth > _peakHeapDepth)
            _peakHeapDepth = heap_depth;
    }

    /** Record one executed callback and its measured host time. */
    void
    noteExecute(const std::string &label, Tick when,
                std::uint64_t wall_ns)
    {
        ++_executed;
        _wallNs += wall_ns;
        // FNV-1a over the (tick, label) stream. Wall time is host
        // noise and deliberately excluded: two runs of the same seed
        // must produce the same hash, which is exactly what
        // `mcdla_sim --audit-determinism` compares.
        std::uint64_t hash = _streamHash;
        for (int shift = 0; shift < 64; shift += 8) {
            hash ^= (when >> shift) & 0xffu;
            hash *= 1099511628211ULL;
        }
        for (const char c : label) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ULL;
        }
        _streamHash = hash;
        // Consecutive events very often share a label (chunked flows,
        // collective steps): memoize the last map entry so the common
        // case skips the tree lookup. std::map references are stable,
        // so the cached pointer survives later insertions.
        if (_last == nullptr || label != _lastKey) {
            _lastKey = label.empty() ? std::string("(unnamed)") : label;
            _last = &_labels[_lastKey];
            if (label.empty())
                _lastKey.clear(); // memo keys on the *raw* label
        }
        ++_last->count;
        _last->wallNs += wall_ns;
    }
    /// @}

    /// @name Aggregates
    /// @{
    std::uint64_t eventsExecuted() const { return _executed; }
    std::uint64_t schedules() const { return _schedules; }
    std::size_t peakHeapDepth() const { return _peakHeapDepth; }
    /** Total host time spent inside event callbacks. */
    double wallSeconds() const { return 1e-9 * static_cast<double>(_wallNs); }

    /** Callbacks executed per host second (0 before any execution). */
    double
    eventsPerSecond() const
    {
        return _wallNs > 0
            ? static_cast<double>(_executed) / wallSeconds()
            : 0.0;
    }

    const std::map<std::string, ProfiledLabel> &
    labels() const
    {
        return _labels;
    }

    /** Labels sorted by descending wall time (ties: by name). */
    std::vector<std::pair<std::string, ProfiledLabel>>
    topLabels(std::size_t limit = 0) const;

    /**
     * FNV-1a digest of the executed (tick, label) event stream. Two
     * runs of the same scenario and seed must agree; the determinism
     * auditor fails when they do not.
     */
    std::uint64_t streamHash() const { return _streamHash; }
    /// @}

    /** Human-readable report (the `--profile` output). */
    void report(std::ostream &os, std::size_t top = 20) const;

    /**
     * Machine-readable report (the `--profile-json` output): one JSON
     * object with the aggregate counters, the stream hash, and every
     * label's count/wall time, sorted by descending wall time.
     */
    void reportJson(std::ostream &os) const;

  private:
    void
    copyCounters(const DesProfiler &other)
    {
        _executed = other._executed;
        _schedules = other._schedules;
        _wallNs = other._wallNs;
        _streamHash = other._streamHash;
        _peakHeapDepth = other._peakHeapDepth;
    }

    std::uint64_t _executed = 0;
    std::uint64_t _schedules = 0;
    std::uint64_t _wallNs = 0;
    /** FNV-1a offset basis. */
    std::uint64_t _streamHash = 14695981039346656037ULL;
    std::size_t _peakHeapDepth = 0;
    std::map<std::string, ProfiledLabel> _labels;
    /** Memo of the last-touched label entry (see noteExecute). */
    std::string _lastKey;
    ProfiledLabel *_last = nullptr;
};

} // namespace mcdla

#endif // MCDLA_SIM_PROFILER_HH
