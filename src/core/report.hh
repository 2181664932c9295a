/**
 * @file
 * Result-reporting backends: CSV and JSON writers for experiment
 * sweeps and a system-wide statistics dump. The Chrome-tracing sink
 * lives in sim/trace.hh so lower layers can emit events.
 *
 * Every bench binary prints human-readable tables; these writers give
 * downstream users machine-readable output and visual timelines for
 * debugging schedules.
 */

#ifndef MCDLA_CORE_REPORT_HH
#define MCDLA_CORE_REPORT_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/units.hh"

namespace mcdla
{

class System;
class TrainingSession;
struct IterationResult;

/** Open @p path for writing, or stop with one fatal line naming it. */
std::ofstream openOutput(const std::string &path);

/** A heterogeneous table cell. */
using ReportValue = std::variant<std::string, double, std::int64_t>;

/**
 * The @p p -th percentile (0..100) of @p values under linear
 * interpolation between closest ranks — the shared tail-statistic
 * helper behind ServingReport's p50/p95/p99 request latencies and
 * ClusterReport's JCT/slowdown tails. Takes its argument by value (it
 * sorts a copy); returns 0 on an empty sample.
 */
double percentile(std::vector<double> values, double p);

/**
 * A rectangular result set with named columns, writable as CSV or a
 * JSON array of row objects.
 */
class ResultSet
{
  public:
    explicit ResultSet(std::vector<std::string> columns);

    const std::vector<std::string> &columns() const { return _columns; }
    std::size_t rowCount() const { return _rows.size(); }

    /** Append one row; must match the column count. */
    void addRow(std::vector<ReportValue> row);

    /** RFC-4180-style CSV with a header row. */
    void writeCsv(std::ostream &os) const;

    /** JSON array of objects keyed by column name. */
    void writeJson(std::ostream &os) const;

    /** Fetch a cell (row-major); panics when out of range. */
    const ReportValue &cell(std::size_t row, std::size_t col) const;

  private:
    static void emitCsvField(std::ostream &os, const ReportValue &v);
    static void emitJsonValue(std::ostream &os, const ReportValue &v);

    std::vector<std::string> _columns;
    std::vector<std::vector<ReportValue>> _rows;
};

/**
 * Dump the statistics of every component of a system (devices, DMA
 * engines, collective engine, channels) and of @p session's pagers in
 * gem5-style `name value # desc` text. Device, channel and pager
 * counters cover the last iteration; DMA and collective counters are
 * lifetime totals.
 */
void dumpSystemStats(System &system, const TrainingSession &session,
                     std::ostream &os);

/// @name Per-channel utilization emission
/// @{

/**
 * Columns of per-channel link-utilization rows: scenario label,
 * channel name, gigabytes moved, busy milliseconds, utilization of
 * the iteration, and the peak FIFO backlog — enough to name the
 * bottleneck *link* of a run, which the per-stage latency breakdown
 * cannot see.
 */
const std::vector<std::string> &channelUsageColumns();

/** Append @p result's per-channel rows, labeled @p label. */
void appendChannelUsageRows(ResultSet &table, const std::string &label,
                            const IterationResult &result);

/// @}

/**
 * The MetricRegistry time-series as a ResultSet: a "time_s" column
 * followed by one column per registered metric, one row per sample —
 * the `--metrics-csv/--metrics-json` payload.
 */
ResultSet metricsTable(const MetricRegistry &metrics);

} // namespace mcdla

#endif // MCDLA_CORE_REPORT_HH
