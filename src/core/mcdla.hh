/**
 * @file
 * Umbrella public header of the mcdla-sim library.
 *
 * Including this header gives access to the full public API:
 *
 *  - mcdla::builders — the eight Table III benchmark networks;
 *  - mcdla::SystemConfig / System — the six design points of Figure 13;
 *  - mcdla::TrainingSession — event-driven training-iteration simulation
 *    with latency breakdowns, host-bandwidth, and makespan metrics;
 *  - mcdla::ParallelStrategy / PipelinePartition — data-, model-, and
 *    GPipe-style pipeline-parallel training strategies;
 *  - mcdla::VmemRuntime — the Table I cudaMallocRemote /
 *    cudaFreeRemote / cudaMemcpyAsync(LocalToRemote|RemoteToLocal) API;
 *  - mcdla::DevicePager / PageTable / PrefetchPolicy / EvictionPolicy —
 *    the paged device-memory subsystem (static-plan, on-demand, and
 *    history prefetching over a capacity-tracked HBM frame budget);
 *  - mcdla::Topology / Router — the interconnect graph layer: typed
 *    nodes and channel-owning links, generic generators (ring, switch,
 *    mesh, torus, fat-tree), and shortest-path/ECMP routing tables;
 *  - mcdla::CollectiveEngine — topology-aware collectives with
 *    selectable algorithms (ring / tree / hierarchical);
 *  - mcdla::Scenario / Simulator / SweepRunner — declarative run
 *    descriptions, one-call execution, and parallel sweeps;
 *  - mcdla::Cluster / JobScheduler / MemoryPoolAllocator — multi-job
 *    scheduling over a shared machine with a disaggregated memory
 *    pool (FIFO/SJF/backfill x first-fit/buddy, ClusterReport);
 *  - mcdla::ServingCluster / BatchPolicy / ReplicaRouter — inference
 *    serving: open-loop request streams (Poisson/bursty/diurnal),
 *    static/dynamic/continuous batch coalescing, SLO-aware replica
 *    routing and admission, co-located with training (ServingReport
 *    p50/p95/p99 request tails);
 *  - experiment helpers (harmonicMean, TablePrinter).
 */

#ifndef MCDLA_CORE_MCDLA_HH
#define MCDLA_CORE_MCDLA_HH

#include "cluster/cluster.hh"
#include "cluster/job.hh"
#include "cluster/pool_allocator.hh"
#include "cluster/scheduler.hh"
#include "collective/ring_collective.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/simulator.hh"
#include "device/compute_model.hh"
#include "device/device_config.hh"
#include "device/device_node.hh"
#include "dnn/builders.hh"
#include "dnn/layer.hh"
#include "dnn/network.hh"
#include "dnn/pipeline.hh"
#include "dnn/tensor.hh"
#include "interconnect/channel.hh"
#include "interconnect/fabric.hh"
#include "interconnect/fabrics.hh"
#include "interconnect/flow.hh"
#include "interconnect/router.hh"
#include "interconnect/topology.hh"
#include "memory/address_map.hh"
#include "memory/dimm.hh"
#include "memory/memory_node.hh"
#include "parallel/strategy.hh"
#include "serving/batch_policy.hh"
#include "serving/request.hh"
#include "serving/router.hh"
#include "serving/serving.hh"
#include "sim/causal.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/units.hh"
#include "system/analytic_model.hh"
#include "system/energy_model.hh"
#include "system/system.hh"
#include "system/system_config.hh"
#include "system/training_session.hh"
#include "vmem/dma_engine.hh"
#include "vmem/offload_plan.hh"
#include "vmem/paging/eviction_policy.hh"
#include "vmem/paging/fault_handler.hh"
#include "vmem/paging/page_table.hh"
#include "vmem/paging/pager.hh"
#include "vmem/paging/paging_config.hh"
#include "vmem/paging/prefetch_policy.hh"
#include "vmem/runtime.hh"
#include "workloads/benchmarks.hh"
#include "workloads/job_mix.hh"
#include "workloads/registry.hh"
#include "workloads/synthetic.hh"

#endif // MCDLA_CORE_MCDLA_HH
