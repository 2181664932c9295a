/**
 * @file
 * DesProfiler implementation.
 */

#include "sim/profiler.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "sim/json.hh"

namespace mcdla
{

std::vector<std::pair<std::string, ProfiledLabel>>
DesProfiler::topLabels(std::size_t limit) const
{
    std::vector<std::pair<std::string, ProfiledLabel>> out(
        _labels.begin(), _labels.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        if (a.second.wallNs != b.second.wallNs)
            return a.second.wallNs > b.second.wallNs;
        return a.first < b.first;
    });
    if (limit > 0 && out.size() > limit)
        out.resize(limit);
    return out;
}

void
DesProfiler::report(std::ostream &os, std::size_t top) const
{
    os << "---------- DES profile ----------\n";
    os << "events executed   : " << _executed << '\n';
    os << "schedules         : " << _schedules << '\n';
    os << "peak heap depth   : " << _peakHeapDepth << '\n';
    os << "callback wall time: " << std::fixed << std::setprecision(3)
       << wallSeconds() * 1e3 << " ms\n";
    os << "events/sec        : " << std::setprecision(0)
       << eventsPerSecond() << '\n';
    os << std::setprecision(3);
    const auto ranked = topLabels(top);
    if (!ranked.empty())
        os << "top labels by callback wall time:\n";
    for (const auto &[label, stats] : ranked) {
        const double pct = _wallNs > 0
            ? 100.0 * static_cast<double>(stats.wallNs)
                / static_cast<double>(_wallNs)
            : 0.0;
        os << "  " << std::setw(6) << pct << "%  "
           << std::setw(10) << stats.count << " ev  "
           << std::setw(12) << stats.wallNs / 1000 << " us  " << label
           << '\n';
    }
    os.unsetf(std::ios::fixed);
    os << "---------------------------------\n";
}

void
DesProfiler::reportJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"events_executed\": " << _executed << ",\n";
    os << "  \"schedules\": " << _schedules << ",\n";
    os << "  \"peak_heap_depth\": " << _peakHeapDepth << ",\n";
    os << "  \"callback_wall_ms\": ";
    jsonNumber(os, wallSeconds() * 1e3);
    os << ",\n  \"events_per_sec\": ";
    jsonNumber(os, eventsPerSecond());
    // The hash is 64-bit; JSON numbers lose precision past 2^53, so
    // emit it as a hex string like the --audit-determinism output.
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(_streamHash));
    os << ",\n  \"stream_hash\": \"" << hash << "\",\n";
    os << "  \"labels\": [";
    bool first = true;
    for (const auto &[label, stats] : topLabels()) {
        os << (first ? "\n" : ",\n") << "    {\"label\": ";
        jsonString(os, label);
        os << ", \"count\": " << stats.count << ", \"wall_ns\": "
           << stats.wallNs << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

} // namespace mcdla
