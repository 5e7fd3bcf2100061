// Deployment set-up and the load generators that drive it.
//
// Open-loop workloads use two client threads: a submitter that sends each
// request at its due time, and a collector that resolves the futures.
// Latency runs from the request's due time to the moment the collector
// sees its future resolve, so a stall also charges the requests queued
// behind it. The closed-loop workload keeps a fixed number of generations
// outstanding from a single thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "check.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "transformer/model.h"
#include "workload.h"

namespace perfbench {

// The server references the model, so it is declared after it (and so
// destroyed first). Construct a Deployment; do not move-assign one over a
// live one.
struct Deployment {
  std::unique_ptr<voltage::TransformerModel> model;
  std::unique_ptr<voltage::InferenceServer> server;
  double setup_s = 0.0;
};

// Builds the model and the server and completes one scoring and one
// generation request (the latter builds the decoder lazily). setup_s times
// all of it.
[[nodiscard]] Deployment deploy(const WorkloadSpec& spec);

// What the harness keeps of one request: scalars only.
struct Outcome {
  bool generate = false;
  bool ok = false;  // the future resolved with a value
  std::size_t output_tokens = 0;
  double latency_s = 0.0;   // due time -> resolved
  double resolved_s = 0.0;  // offset from the run's start
};

struct RunResult {
  std::vector<Outcome> outcomes;  // in submission order
  std::vector<ScoreSample> score_samples;
  std::vector<GenerateSample> generate_samples;
  std::vector<double> lateness_s;  // generator lateness per request
  double window_s = 0.0;           // the measured window
  std::size_t sent_in_window = 0;
  std::size_t resolved_in_window = 0;
  // batch_occupancy() / queue_depth() sampled at every submission.
  double occupancy_mean = 0.0;
  double queue_depth_mean = 0.0;
  // CPU time the deployment spent serving: the process's CPU time from the
  // first submission to the last resolution, minus the client threads'.
  // Both clocks leave out time the hypervisor steals from a vCPU.
  double server_cpu_s = 0.0;
};

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  // When set, one "bench.request" span per request (submit -> resolved).
  voltage::obs::Tracer* tracer = nullptr;
};

[[nodiscard]] RunResult run_workload(const WorkloadSpec& spec,
                                     voltage::InferenceServer& server,
                                     const RunOptions& options);

}  // namespace perfbench
