// Fleet-scale serving simulation: N replicated K-device meshes behind a
// load balancer, driven by open-loop traffic or a closed-loop client pool.
//
// Each mesh runs iteration-level continuous batching exactly like the PR-8
// server: requests join at step boundaries (paying their prefill on the
// step they join), every step generates MeshModel::tokens_per_step()
// tokens for each active sequence (1 without speculation; the expected
// acceptance run length for a with_speculation mesh), and the step's wall
// time comes from the calibrated MeshModel occupancy curve. The balancer routes arrivals; per-mesh admission
// control bounds queue depth; TTFT / end-to-end / queue-wait distributions
// are tracked through obs::Histogram, so the simulator's percentiles are
// bit-identical to what the live server's metrics would report on the same
// samples.
//
// One mesh also answers single-queue questions: a one-lane mesh whose one
// step is a whole request is an M/D/1 queue, and an S-lane mesh stepping at
// a pipeline's bottleneck stage, with S-token requests, is that pipeline
// (bench/ablation_strategies prices each deployment strategy this way).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sim/mesh_model.h"
#include "sim/traffic.h"

namespace voltage::sim {

enum class BalancerPolicy : std::uint8_t {
  kRoundRobin,         // DNS-style rotation, no load feedback
  kJoinShortestQueue,  // fewest queued + in-flight requests
  // Routes to the mesh with the best predicted TTFT and sheds the request
  // when no mesh is predicted to meet the TTFT SLO — trades completed
  // volume for a bounded tail under overload.
  kDeadlineAware,
};

struct FleetConfig {
  std::size_t num_meshes = 1;
  MeshModel mesh = MeshModel::from_bench_serving();
  std::size_t max_batch = 16;          // concurrent sequences per mesh
  std::size_t max_queue_per_mesh = 1024;  // admission control
  BalancerPolicy policy = BalancerPolicy::kJoinShortestQueue;
  Seconds ttft_slo = 0.5;  // target for slo_attainment and kDeadlineAware
};

struct FleetReport {
  std::size_t num_meshes = 0;
  std::size_t offered = 0;    // requests presented to the balancer
  std::size_t completed = 0;
  std::size_t rejected = 0;   // admission / deadline-aware sheds
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  // completed / makespan
  double tokens_per_s = 0.0;  // generated tokens / makespan
  // rho: mesh-seconds demanded by the offered traffic (prefill + decode
  // slot-steps priced at max_batch lanes, MeshModel::token_time) over
  // mesh-seconds available. The queue is unstable at rho >= 1: percentiles
  // then depend on how long you watch, and the planner refuses such
  // operating points.
  double offered_load = 0.0;
  bool stable = false;
  double mean_mesh_utilization = 0.0;  // busy fraction of makespan, <= 1
  double slo_attainment = 0.0;  // completed requests with TTFT <= ttft_slo
  Seconds makespan = 0.0;
  obs::HistogramSnapshot ttft;        // arrival -> first generated token
  obs::HistogramSnapshot e2e;         // arrival -> last token
  obs::HistogramSnapshot queue_wait;  // arrival -> joined a batch
};

// Open-loop: pre-generated arrivals (see OpenLoopTraffic::generate).
[[nodiscard]] FleetReport simulate_fleet(const FleetConfig& config,
                                         const std::vector<Request>& requests);
[[nodiscard]] FleetReport simulate_fleet(const FleetConfig& config,
                                         const OpenLoopTraffic& traffic);

// Closed-loop: each client waits for its answer, thinks, asks again.
[[nodiscard]] FleetReport simulate_fleet_closed_loop(
    const FleetConfig& config, const ClosedLoopClients& clients);

}  // namespace voltage::sim
