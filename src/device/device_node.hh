/**
 * @file
 * DeviceNode: one accelerator inside the system simulation.
 *
 * A device-node couples a DeviceConfig, its ComputeModel, and bookkeeping
 * for local memory capacity. Its serial compute stream is scheduled by
 * the TrainingSession (system library), which reports each issued op
 * here; the busy time and op count are per-iteration counters that the
 * owning session clears at every iteration start.
 */

#ifndef MCDLA_DEVICE_DEVICE_NODE_HH
#define MCDLA_DEVICE_DEVICE_NODE_HH

#include <cstdint>

#include "device/compute_model.hh"
#include "device/device_config.hh"
#include "sim/sim_object.hh"

namespace mcdla
{

/** One accelerator device (GPU/TPU class) in the simulated node. */
class DeviceNode : public SimObject
{
  public:
    /**
     * @param eq Driving event queue.
     * @param name Instance name (e.g. "sys.dev3").
     * @param cfg Device configuration.
     */
    DeviceNode(EventQueue &eq, std::string name, const DeviceConfig &cfg)
        : SimObject(eq, std::move(name)), _cfg(cfg), _model(cfg)
    {}

    const DeviceConfig &config() const { return _cfg; }
    const ComputeModel &computeModel() const { return _model; }

    /** Local memory capacity in bytes. */
    std::uint64_t memCapacity() const { return _cfg.memCapacity; }

    /** Count one layer pass of @p duration ticks on the compute
        stream. */
    void
    occupyCompute(Tick duration)
    {
        _computeBusyTicks += duration;
        ++_opsExecuted;
    }

    /** Ticks the compute engine was busy since resetStats(). */
    Tick computeBusyTicks() const { return _computeBusyTicks; }

    /** Layer passes executed since resetStats(). */
    std::uint64_t opsExecuted() const { return _opsExecuted; }

    /** Clear the busy-time and op counters. */
    void
    resetStats()
    {
        _computeBusyTicks = 0;
        _opsExecuted = 0;
    }

  private:
    DeviceConfig _cfg;
    ComputeModel _model;
    Tick _computeBusyTicks = 0;
    std::uint64_t _opsExecuted = 0;
};

} // namespace mcdla

#endif // MCDLA_DEVICE_DEVICE_NODE_HH
