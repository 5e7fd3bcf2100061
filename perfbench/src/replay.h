// Per-layer replay of the traced run.
//
// Once the workload has been served, the benchmark calls each module's
// public entry points itself, at the workload's shapes and on its
// transport, and times them from outside (the program has no internal
// timers yet): the runtime's infer / prime_slot / step_batch, the
// collectives, a transport ping-pong, the partitioned kernels, the
// transformer blocks and the GEMM. Wire traffic and multiply-accumulates
// are exact counts: fabric-counter and flops::matmul_macs() deltas, taken
// after every device thread has joined so no straggler is missed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "transformer/model.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Replays every layer call for `spec`. Prompts come from the workload's own
// request stream for `seed`. Every timed call is recorded as a span when
// `tracer` is set.
[[nodiscard]] std::vector<Metric> replay_layers(
    const WorkloadSpec& spec, const voltage::TransformerModel& model,
    std::uint64_t seed, voltage::obs::Tracer* tracer);

}  // namespace perfbench
