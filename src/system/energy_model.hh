/**
 * @file
 * Iteration energy model (extends Section V-C).
 *
 * The paper bounds MC-DLA's power cost with DIMM TDPs (Table IV). This
 * model instead integrates *measured* activity from a simulated
 * iteration: device busy/idle time against device TDP/idle power,
 * memory-node power from observed DIMM-bus utilization (Micron-style
 * background + activity split), link energy per byte moved on the
 * device-side interconnect, and host DRAM energy per byte for the
 * PCIe/host designs. Output feeds a perf/W comparison across design
 * points.
 */

#ifndef MCDLA_SYSTEM_ENERGY_MODEL_HH
#define MCDLA_SYSTEM_ENERGY_MODEL_HH

#include "system/system.hh"
#include "system/training_session.hh"

namespace mcdla
{

/** Electrical parameters (defaults: V100/DGX-class public figures). */
struct EnergyConfig
{
    /** Device board power at full compute load (V100: 300 W). */
    double deviceTdpWatts = 300.0;
    /** Device board power while idle. */
    double deviceIdleWatts = 50.0;
    /** NVLINK-class signaling energy per byte moved (~10 pJ/bit). */
    double linkJoulesPerByte = 1.25e-9;
    /** PCIe + host DRAM energy per byte moved (~20 pJ/bit + DRAM). */
    double hostJoulesPerByte = 5.0e-9;
    /** Host baseline power attributable to serving the node (W). */
    double hostBaseWatts = 200.0;
};

/** Energy breakdown of one iteration. */
struct EnergyReport
{
    double deviceJoules = 0.0;  ///< Accelerator compute + idle.
    double memNodeJoules = 0.0; ///< Memory-node boards (Table IV model).
    double linkJoules = 0.0;    ///< Device-side interconnect traffic.
    double hostJoules = 0.0;    ///< Host DRAM/PCIe traffic + base.
    double iterationSeconds = 0.0;

    double
    totalJoules() const
    {
        return deviceJoules + memNodeJoules + linkJoules + hostJoules;
    }

    /** Average node power over the iteration. */
    double
    averageWatts() const
    {
        return iterationSeconds > 0.0 ? totalJoules() / iterationSeconds
                                      : 0.0;
    }

    /** Iterations per second per watt. */
    double
    perfPerWatt() const
    {
        const double total = totalJoules();
        return total > 0.0 ? 1.0 / total : 0.0;
    }
};

/**
 * Integrate the energy of iteration @p r, just simulated on @p system.
 *
 * Uses the devices' per-iteration compute-busy counters and the
 * iteration's own per-channel bytes (IterationResult::channels), from
 * which it derives memory-node DIMM-bus utilization; call it before
 * the next iteration starts, which clears the device counters.
 */
EnergyReport estimateEnergy(System &system, const IterationResult &r,
                            const EnergyConfig &cfg = {});

} // namespace mcdla

#endif // MCDLA_SYSTEM_ENERGY_MODEL_HH
