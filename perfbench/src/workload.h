// Workload definitions of the serving benchmark and their seeded request
// streams.
//
// Every workload drives one InferenceServer built the same way (mini-gpt2
// with 256 positions, PartitionScheme::even(4), fp32, adaptive order,
// default max_batch, no drafter, no deadline); they differ in traffic shape
// and transport. Requests are generated from the benchmark's --seed alone:
// the same seed yields the same arrival times, prompts and output lengths,
// and every prompt is fresh random tokens, so no two requests share a
// prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/transport.h"
#include "transformer/config.h"
#include "transformer/embedding.h"

namespace perfbench {

using voltage::TokenId;

inline constexpr std::size_t kDevices = 4;

// mini-gpt2 (F=128, L=4, H=4, vocab 1024) with room for 256 positions.
[[nodiscard]] voltage::ModelSpec bench_model_spec();
inline constexpr std::uint64_t kModelSeed = 42;

// Log-normal length distribution, clamped to [min, max]; sigma 0 means
// uniform over [min, max] instead.
struct LengthDist {
  double median = 0.0;
  double sigma = 0.0;
  std::size_t min = 0;
  std::size_t max = 0;
};

struct WorkloadSpec {
  std::string_view name;
  // Open loop: Poisson arrivals at `rate` requests/s for the whole run.
  // Closed loop: `outstanding` generations always in flight from one thread.
  bool open_loop = true;
  double rate = 0.0;
  std::size_t outstanding = 0;
  voltage::TransportKind transport = voltage::TransportKind::kInMemory;
  // Share of requests that are greedy generations (the rest are scoring
  // requests: submit(tokens) -> next-token logits).
  double generate_share = 0.0;
  LengthDist score_prompt;
  LengthDist generate_prompt;
  std::size_t min_new_tokens = 0;
  std::size_t max_new_tokens = 0;  // inclusive
  // Service-level limits: a scoring request meets its limit when its
  // latency is at most score_slo_ms; a generation when its latency divided
  // by its output tokens is at most token_slo_ms.
  double score_slo_ms = 0.0;
  double token_slo_ms = 0.0;
  // Shapes of the per-layer replay (traced run): prefill length N and the
  // decode context T, the workload's typical values.
  std::size_t replay_prefill_n = 0;
  std::size_t replay_context = 0;
};

[[nodiscard]] std::optional<WorkloadSpec> workload_by_name(
    std::string_view name);
[[nodiscard]] std::vector<std::string_view> workload_names();

struct Request {
  std::size_t index = 0;
  double due_s = 0.0;  // offset from the run's start (open loop only)
  std::vector<TokenId> prompt;
  std::size_t new_tokens = 0;  // 0 = scoring request

  [[nodiscard]] bool generate() const noexcept { return new_tokens > 0; }
};

// Deterministic 64-bit generator (splitmix64): its output is fixed by the
// algorithm, unlike the standard distributions, whose results vary between
// standard-library implementations.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) noexcept : state_(seed) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  [[nodiscard]] double uniform() noexcept;  // [0, 1)
  [[nodiscard]] double exponential() noexcept;  // mean 1
  [[nodiscard]] double normal() noexcept;
  // Uniform integer in [lo, hi].
  [[nodiscard]] std::size_t between(std::size_t lo, std::size_t hi) noexcept;

 private:
  std::uint64_t state_;
};

// The seeded request stream of one run. Open-loop workloads fix the request
// count at rate x seconds and place the arrivals as a Poisson process
// conditioned on that count (sorted uniform times), and fix the number of
// each request class, so the offered load is the same on every seed;
// closed-loop streams are unbounded.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

  // Next request, or nullopt when an open-loop stream is exhausted.
  [[nodiscard]] std::optional<Request> next();
  [[nodiscard]] std::size_t planned() const noexcept {
    return due_s_.size();
  }

 private:
  [[nodiscard]] std::size_t draw_length(const LengthDist& dist);

  const WorkloadSpec& spec_;
  SeededRng rng_;
  std::size_t vocab_;
  std::vector<double> due_s_;  // open loop: arrival offsets, ascending
  // Open loop: which requests are generations — exactly
  // round(generate_share x count) of them, in seeded order.
  std::vector<bool> generate_;
  std::size_t issued_ = 0;
};

// FNV-1a digest of the first `count` requests of a stream (arrival time at
// microsecond resolution, output length and prompt tokens).
[[nodiscard]] std::uint64_t request_digest(const WorkloadSpec& spec,
                                           std::uint64_t seed, double seconds,
                                           std::size_t count);

}  // namespace perfbench
