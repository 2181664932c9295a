/**
 * @file
 * Reporting backends implementation.
 */

#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "system/training_session.hh"

namespace mcdla
{

std::ofstream
openOutput(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    return out;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        panic("percentile %g outside [0, 100]", p);
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0
        * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= values.size())
        return values.back();
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

ResultSet::ResultSet(std::vector<std::string> columns)
    : _columns(std::move(columns))
{
    if (_columns.empty())
        panic("result set requires at least one column");
}

void
ResultSet::addRow(std::vector<ReportValue> row)
{
    if (row.size() != _columns.size())
        panic("result row has %zu cells, expected %zu", row.size(),
              _columns.size());
    _rows.push_back(std::move(row));
}

const ReportValue &
ResultSet::cell(std::size_t row, std::size_t col) const
{
    if (row >= _rows.size() || col >= _columns.size())
        panic("result cell (%zu, %zu) out of range", row, col);
    return _rows[row][col];
}

void
ResultSet::emitCsvField(std::ostream &os, const ReportValue &v)
{
    if (std::holds_alternative<std::string>(v)) {
        // RFC 4180: fields containing separators, quotes, or line
        // breaks (LF or CR) are quoted, with embedded quotes doubled.
        const std::string &s = std::get<std::string>(v);
        const bool quote =
            s.find_first_of(",\"\n\r") != std::string::npos;
        if (!quote) {
            os << s;
            return;
        }
        os << '"';
        for (char c : s) {
            if (c == '"')
                os << '"';
            os << c;
        }
        os << '"';
    } else if (std::holds_alternative<double>(v)) {
        os << std::setprecision(10) << std::get<double>(v);
    } else {
        os << std::get<std::int64_t>(v);
    }
}

void
ResultSet::writeCsv(std::ostream &os) const
{
    for (std::size_t c = 0; c < _columns.size(); ++c) {
        if (c)
            os << ',';
        emitCsvField(os, ReportValue{_columns[c]});
    }
    os << '\n';
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ',';
            emitCsvField(os, row[c]);
        }
        os << '\n';
    }
}

void
ResultSet::emitJsonValue(std::ostream &os, const ReportValue &v)
{
    if (std::holds_alternative<std::string>(v)) {
        jsonString(os, std::get<std::string>(v));
    } else if (std::holds_alternative<double>(v)) {
        const double d = std::get<double>(v);
        // JSON has no NaN/Infinity literals; emit null (RFC 8259).
        if (!std::isfinite(d))
            os << "null";
        else
            os << std::setprecision(10) << d;
    } else {
        os << std::get<std::int64_t>(v);
    }
}

void
ResultSet::writeJson(std::ostream &os) const
{
    os << "[\n";
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        os << "  {";
        for (std::size_t c = 0; c < _columns.size(); ++c) {
            if (c)
                os << ", ";
            emitJsonValue(os, ReportValue{_columns[c]});
            os << ": ";
            emitJsonValue(os, _rows[r][c]);
        }
        os << '}' << (r + 1 < _rows.size() ? "," : "") << '\n';
    }
    os << "]\n";
}

void
dumpSystemStats(System &system, std::ostream &os)
{
    os << "---------- Begin Simulation Statistics ----------\n";
    for (int d = 0; d < system.numDevices(); ++d) {
        system.device(d).stats().dump(os);
        system.dma(d).stats().dump(os);
    }
    system.collectives().stats().dump(os);
    for (Channel *ch : system.fabric().channels())
        ch->stats().dump(os);
    os << "---------- End Simulation Statistics ----------\n";
}

const std::vector<std::string> &
channelUsageColumns()
{
    // peak_queue_since_reset is named for its window: unlike the
    // per-iteration byte/busy deltas, a max cannot be delta'd, so it
    // covers everything since the last stats reset (the iteration for
    // standalone runs, the machine's lifetime under multi-tenancy).
    static const std::vector<std::string> columns = {
        "scenario", "channel",     "gigabytes",
        "busy_ms",  "utilization", "peak_queue_since_reset"};
    return columns;
}

void
appendChannelUsageRows(ResultSet &table, const std::string &label,
                       const IterationResult &result)
{
    for (const ChannelUsage &usage : result.channels) {
        table.addRow({label,
                      usage.channel,
                      usage.bytes / 1e9,
                      usage.busySec * 1e3,
                      usage.utilization,
                      static_cast<std::int64_t>(
                          usage.peakQueueDepth)});
    }
}

ResultSet
metricsTable(const MetricRegistry &metrics)
{
    std::vector<std::string> columns;
    columns.reserve(metrics.names().size() + 1);
    columns.push_back("time_s");
    for (const std::string &name : metrics.names())
        columns.push_back(name);
    ResultSet table(std::move(columns));
    for (const MetricRegistry::Sample &sample : metrics.samples()) {
        std::vector<ReportValue> row;
        row.reserve(sample.values.size() + 1);
        row.emplace_back(ticksToSeconds(sample.at));
        for (const double v : sample.values)
            row.emplace_back(v);
        table.addRow(std::move(row));
    }
    return table;
}

} // namespace mcdla
