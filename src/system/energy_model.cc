/**
 * @file
 * Energy model implementation.
 */

#include "system/energy_model.hh"

#include <algorithm>
#include <map>

#include "sim/logging.hh"

namespace mcdla
{

EnergyReport
estimateEnergy(System &system, const IterationResult &r,
               const EnergyConfig &cfg)
{
    EnergyReport report;
    report.iterationSeconds = r.iterationSeconds();
    const double span = report.iterationSeconds;
    if (span <= 0.0)
        return report;

    // Devices: busy time at TDP, remainder at idle power.
    for (int d = 0; d < system.numDevices(); ++d) {
        const double busy_s =
            ticksToSeconds(system.device(d).computeBusyTicks());
        const double busy = std::min(busy_s, span);
        report.deviceJoules += busy * cfg.deviceTdpWatts
            + (span - busy) * cfg.deviceIdleWatts;
    }

    // The channel counters are lifetime totals; the iteration's own
    // bytes are its ChannelUsage rows, in fabric channel order.
    const Fabric &fabric = system.fabric();
    const std::vector<Channel *> channels = fabric.channels();
    if (r.channels.size() != channels.size())
        panic("estimateEnergy: %zu channel rows for %zu channels",
              r.channels.size(), channels.size());
    std::map<const Channel *, double> bytes;
    for (std::size_t c = 0; c < channels.size(); ++c)
        bytes[channels[c]] = r.channels[c].bytes;

    // Memory-nodes: power follows measured DIMM-bus utilization.
    const MemoryNodeConfig &node = system.config().memNode;
    for (const auto &[index, channel] : fabric.memNodeChannels()) {
        (void)index;
        const double util = std::clamp(
            bytes.at(channel) / (node.bandwidth() * span), 0.0, 1.0);
        report.memNodeJoules += node.operatingWatts(util) * span;
    }

    // Device-side links: energy per byte on every non-host channel.
    double link_bytes = 0.0;
    for (const ChannelUsage &usage : r.channels)
        link_bytes += usage.bytes;
    // Socket and DIMM-bus channels are accounted separately; remove
    // their contribution from the link total.
    for (const Channel *ch : fabric.socketChannels())
        link_bytes -= bytes.at(ch);
    for (const auto &[index, ch] : fabric.memNodeChannels()) {
        (void)index;
        link_bytes -= bytes.at(ch);
    }
    report.linkJoules = std::max(link_bytes, 0.0)
        * cfg.linkJoulesPerByte;

    // Host: traffic energy plus a base allocation for the sockets.
    report.hostJoules = r.hostBytes * cfg.hostJoulesPerByte
        + cfg.hostBaseWatts * span;
    return report;
}

} // namespace mcdla
