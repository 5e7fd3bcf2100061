#include "replay.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "collective/collectives.h"
#include "collective/softmax_merge.h"
#include "core/thread_pool.h"
#include "net/message.h"
#include "partition/decode_attention.h"
#include "partition/order.h"
#include "partition/partitioned_layer.h"
#include "partition/scheme.h"
#include "runtime/distributed_decoder.h"
#include "runtime/voltage_runtime.h"
#include "stats.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "transformer/ffn.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using voltage::Tensor;
using voltage::TrafficStats;

constexpr voltage::obs::TrackId kReplayTrack = 9101;
// Prompts of the workload's own stream that the runtime replays run on.
constexpr std::size_t kReplayPrompts = 24;
// Each timed call repeats for at least this many calls and this long.
constexpr std::size_t kMinCalls = 40;
constexpr double kCallBudgetS = 0.25;
// Decode steps timed per batch size.
constexpr std::size_t kSteps = 24;

[[nodiscard]] double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[nodiscard]] Tensor random_tensor(std::size_t rows, std::size_t cols,
                                   SeededRng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) v = static_cast<float>(0.5 * rng.normal());
  return t;
}

[[nodiscard]] std::vector<TokenId> random_prompt(std::size_t n,
                                                 SeededRng& rng) {
  const std::size_t vocab = bench_model_spec().vocab_size;
  std::vector<TokenId> tokens(n);
  for (TokenId& t : tokens) {
    t = static_cast<TokenId>(rng.between(0, vocab - 1));
  }
  return tokens;
}

// Median microseconds of `fn` over at least kMinCalls calls and kCallBudgetS
// seconds, after two warm-up calls; every timed call is a `span` span.
template <typename Fn>
[[nodiscard]] double median_call_us(voltage::obs::Tracer* tracer,
                                    const char* span, Fn&& fn) {
  fn();
  fn();
  std::vector<double> us;
  const Clock::time_point begin = Clock::now();
  while (us.size() < kMinCalls ||
         std::chrono::duration<double>(Clock::now() - begin).count() <
             kCallBudgetS) {
    const voltage::obs::TraceSpan s(tracer, span, "bench", kReplayTrack);
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(micros(t0, Clock::now()));
  }
  return median(std::move(us));
}

// Runs `op(rank, iteration)` on `ranks` threads in lock step for `iters`
// iterations; an iteration lasts from the first rank's start to the last
// rank's end. Returns the median iteration in microseconds.
[[nodiscard]] double median_mesh_us(
    voltage::obs::Tracer* tracer, const char* span, std::size_t ranks,
    std::size_t iters,
    const std::function<void(std::size_t, std::size_t)>& op) {
  std::vector<Clock::time_point> starts(iters * ranks);
  std::vector<Clock::time_point> ends(iters * ranks);
  std::barrier sync(static_cast<std::ptrdiff_t>(ranks));
  {
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r < ranks; ++r) {
      threads.emplace_back([&, r] {
        const voltage::IntraOpScope single(1);
        for (std::size_t i = 0; i < iters; ++i) {
          sync.arrive_and_wait();
          const voltage::obs::TraceSpan s(r == 0 ? tracer : nullptr, span,
                                          "bench", kReplayTrack);
          starts[i * ranks + r] = Clock::now();
          op(r, i);
          ends[i * ranks + r] = Clock::now();
        }
      });
    }
  }
  std::vector<double> us;
  constexpr std::size_t kWarmup = 4;
  for (std::size_t i = std::min(kWarmup, iters - 1); i < iters; ++i) {
    const auto first = std::min_element(starts.begin() + i * ranks,
                                         starts.begin() + (i + 1) * ranks);
    const auto last = std::max_element(ends.begin() + i * ranks,
                                       ends.begin() + (i + 1) * ranks);
    us.push_back(micros(*first, *last));
  }
  return median(std::move(us));
}

[[nodiscard]] std::vector<voltage::DeviceId> device_group(std::size_t n) {
  std::vector<voltage::DeviceId> group(n);
  for (std::size_t i = 0; i < n; ++i) group[i] = i;
  return group;
}

// Forwards to a real transport; when its owner destroys it — after the
// owner's device threads have joined — it publishes the final traffic
// totals, so a before/after pair of owners gives exact message counts.
class FinalStatsTransport final : public voltage::Transport {
 public:
  FinalStatsTransport(std::unique_ptr<voltage::Transport> inner,
                      TrafficStats* sink)
      : inner_(std::move(inner)), sink_(sink) {}
  ~FinalStatsTransport() override { *sink_ = inner_->total_stats(); }
  FinalStatsTransport(const FinalStatsTransport&) = delete;
  FinalStatsTransport& operator=(const FinalStatsTransport&) = delete;

  [[nodiscard]] std::size_t devices() const noexcept override {
    return inner_->devices();
  }
  void send(voltage::Message message) override {
    inner_->send(std::move(message));
  }
  [[nodiscard]] voltage::Message recv(
      voltage::DeviceId receiver, voltage::DeviceId source,
      voltage::MessageTag tag,
      const voltage::RecvOptions& options) override {
    return inner_->recv(receiver, source, tag, options);
  }
  [[nodiscard]] voltage::Message recv_any(
      voltage::DeviceId receiver, voltage::MessageTag tag,
      const voltage::RecvOptions& options) override {
    return inner_->recv_any(receiver, tag, options);
  }
  void close(std::string reason) override { inner_->close(std::move(reason)); }
  [[nodiscard]] bool closed() const noexcept override {
    return inner_->closed();
  }
  [[nodiscard]] TrafficStats stats(voltage::DeviceId device) const override {
    return inner_->stats(device);
  }
  [[nodiscard]] TrafficStats total_stats() const override {
    return inner_->total_stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  std::unique_ptr<voltage::Transport> inner_;
  TrafficStats* sink_;
};

struct ExactCounts {
  TrafficStats traffic;
  std::uint64_t macs = 0;
};

// Traffic and MACs of a whole decoder lifetime: prime `lanes` prompts, then
// optionally one batched step over all of them.
[[nodiscard]] ExactCounts decoder_lifetime(
    const voltage::TransformerModel& model, voltage::TransportKind kind,
    const std::vector<std::vector<TokenId>>& prompts, bool step) {
  ExactCounts counts;
  const std::uint64_t macs0 = voltage::flops::matmul_macs();
  {
    voltage::DistributedDecoder decoder(
        model, voltage::PartitionScheme::even(kDevices),
        voltage::OrderPolicy::kAdaptive,
        std::make_unique<FinalStatsTransport>(
            voltage::make_transport(kind, kDevices + 1), &counts.traffic));
    std::vector<voltage::SlotToken> lanes;
    for (const std::vector<TokenId>& prompt : prompts) {
      const auto primed = decoder.prime_slot(prompt);
      lanes.push_back(voltage::SlotToken{
          .slot = primed.slot,
          .token = static_cast<TokenId>(voltage::argmax_row(primed.logits, 0))});
    }
    if (step) (void)decoder.step_batch(lanes);
  }
  counts.macs = voltage::flops::matmul_macs() - macs0;
  return counts;
}

class Replay {
 public:
  Replay(const WorkloadSpec& spec, const voltage::TransformerModel& model,
         std::uint64_t seed, voltage::obs::Tracer* tracer)
      : spec_(spec), model_(model), tracer_(tracer), rng_(seed ^ 0x5EED) {
    RequestStream stream(spec, seed, 60.0);
    while (prompts_.size() < kReplayPrompts) {
      std::optional<Request> r = stream.next();
      if (!r) break;
      prompts_.push_back(std::move(r->prompt));
    }
  }

  std::vector<Metric> run() {
    runtime();
    decoder();
    exact_counts();
    collectives();
    kernels();
    return std::move(metrics_);
  }

 private:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  [[nodiscard]] const voltage::LayerConfig& config() const {
    return model_.layers()[0].config();
  }

  // VoltageRuntime::infer: the workload's prompts, the K-token floor, and
  // the exact traffic and MACs of one request at the replay prefill length.
  void runtime() {
    voltage::VoltageRuntime rt(model_, voltage::PartitionScheme::even(kDevices),
                               voltage::OrderPolicy::kAdaptive,
                               spec_.transport);
    std::vector<double> ms;
    for (std::size_t pass = 0; pass < 2; ++pass) {
      for (const std::vector<TokenId>& prompt : prompts_) {
        const voltage::obs::TraceSpan s(tracer_, "replay.runtime.infer",
                                        "bench", kReplayTrack);
        const Clock::time_point t0 = Clock::now();
        (void)rt.infer(prompt);
        ms.push_back(micros(t0, Clock::now()) / 1e3);
      }
    }
    add("runtime.infer_ms_p50", median(std::move(ms)), "ms");

    const std::vector<TokenId> floor_tokens = random_prompt(kDevices, rng_);
    add("runtime.infer_floor_us",
        median_call_us(tracer_, "replay.runtime.infer_floor",
                       [&] { (void)rt.infer(floor_tokens); }),
        "us");

    // infer() joins its device threads before returning, so the deltas
    // around one call are exact.
    const std::vector<TokenId> tokens =
        random_prompt(spec_.replay_prefill_n, rng_);
    const TrafficStats before = rt.fabric().total_stats();
    const std::uint64_t macs0 = voltage::flops::matmul_macs();
    (void)rt.infer(tokens);
    add("tensor.macs_per_classify",
        static_cast<double>(voltage::flops::matmul_macs() - macs0), "count");
    add("net.bytes_per_classify",
        static_cast<double>(rt.fabric().total_stats().bytes_sent -
                            before.bytes_sent),
        "bytes");
  }

  // DistributedDecoder: prime_slot on the workload's prompts, and batched
  // steps at B=1 and B=8 around the replay context length.
  void decoder() {
    voltage::DistributedDecoder dec(model_,
                                    voltage::PartitionScheme::even(kDevices),
                                    voltage::OrderPolicy::kAdaptive,
                                    spec_.transport);
    std::vector<double> ms;
    for (const std::vector<TokenId>& prompt : prompts_) {
      const voltage::obs::TraceSpan s(tracer_, "replay.runtime.prime_slot",
                                      "bench", kReplayTrack);
      const Clock::time_point t0 = Clock::now();
      const auto primed = dec.prime_slot(prompt);
      ms.push_back(micros(t0, Clock::now()) / 1e3);
      dec.release_slot(primed.slot);
    }
    add("runtime.prime_ms_p50", median(std::move(ms)), "ms");

    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      std::vector<voltage::SlotToken> lanes;
      for (std::size_t b = 0; b < batch; ++b) {
        const auto primed =
            dec.prime_slot(random_prompt(spec_.replay_context, rng_));
        lanes.push_back(voltage::SlotToken{
            .slot = primed.slot,
            .token =
                static_cast<TokenId>(voltage::argmax_row(primed.logits, 0))});
      }
      std::vector<double> us;
      for (std::size_t i = 0; i < kSteps; ++i) {
        const voltage::obs::TraceSpan s(
            tracer_,
            batch == 1 ? "replay.runtime.step_b1" : "replay.runtime.step_b8",
            "bench", kReplayTrack);
        const Clock::time_point t0 = Clock::now();
        const Tensor logits = dec.step_batch(lanes);
        us.push_back(micros(t0, Clock::now()));
        for (std::size_t b = 0; b < batch; ++b) {
          lanes[b].token = static_cast<TokenId>(voltage::argmax_row(logits, b));
        }
      }
      add(batch == 1 ? "runtime.step_us_b1" : "runtime.step_us_b8",
          median(std::move(us)), "us");
      for (const voltage::SlotToken& lane : lanes) dec.release_slot(lane.slot);
    }
  }

  // Wire traffic and MACs of one decode step: a decoder lifetime with the
  // step minus the same lifetime without it.
  void exact_counts() {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      SeededRng prompt_rng(0xC0FFEE + batch);
      std::vector<std::vector<TokenId>> prompts;
      for (std::size_t b = 0; b < batch; ++b) {
        prompts.push_back(random_prompt(spec_.replay_context, prompt_rng));
      }
      const ExactCounts base =
          decoder_lifetime(model_, spec_.transport, prompts, false);
      const ExactCounts stepped =
          decoder_lifetime(model_, spec_.transport, prompts, true);
      const auto bytes = static_cast<double>(stepped.traffic.bytes_sent -
                                             base.traffic.bytes_sent);
      if (batch == 1) {
        add("net.messages_per_step",
            static_cast<double>(stepped.traffic.messages_sent -
                                base.traffic.messages_sent),
            "count");
        add("net.bytes_per_step_b1", bytes, "bytes");
        add("tensor.macs_per_token",
            static_cast<double>(stepped.macs - base.macs), "count");
      } else {
        add("net.bytes_per_step_b8", bytes, "bytes");
      }
    }
  }

  // Collectives on a fresh mesh of the workload's transport, at the shapes
  // the runtime and decoder use: the prefill all-gather of N rows, the
  // decode-step softmax merge and token-row broadcast, and a ping-pong.
  void collectives() {
    const std::size_t f = config().hidden;
    const std::size_t heads = config().heads;
    const std::size_t head_dim = config().head_dim;
    constexpr std::size_t kIters = 200;
    const std::vector<voltage::DeviceId> workers = device_group(kDevices);
    const std::vector<voltage::DeviceId> everyone = device_group(kDevices + 1);
    {
      auto fabric = voltage::make_transport(spec_.transport, kDevices);
      const std::size_t n = spec_.replay_prefill_n;
      const std::vector<voltage::Range> ranges =
          voltage::PartitionScheme::even(kDevices).ranges(n);
      std::vector<std::shared_ptr<const Tensor>> locals;
      std::vector<Tensor> dsts;
      for (std::size_t r = 0; r < kDevices; ++r) {
        locals.push_back(std::make_shared<const Tensor>(
            random_tensor(ranges[r].size(), f, rng_)));
        dsts.emplace_back(n, f);
      }
      add("collective.all_gather_us",
          median_mesh_us(tracer_, "replay.collective.all_gather", kDevices,
                         kIters,
                         [&](std::size_t r, std::size_t i) {
                           voltage::all_gather_into(*fabric, workers, r,
                                                    locals[r], ranges, dsts[r],
                                                    1000 + i);
                         }),
          "us");
    }
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      auto fabric = voltage::make_transport(spec_.transport, kDevices);
      const std::size_t cols = voltage::softmax_partial_cols(heads, head_dim);
      std::vector<Tensor> partials;
      for (std::size_t r = 0; r < kDevices; ++r) {
        Tensor p = random_tensor(batch, cols, rng_);
        for (std::size_t row = 0; row < batch; ++row) {
          for (std::size_t h = 0; h < heads; ++h) {
            p(row, h * (head_dim + 2) + 1) = 1.0F;  // positive denominator
          }
        }
        partials.push_back(std::move(p));
      }
      add(batch == 1 ? "collective.softmax_merge_us_b1"
                     : "collective.softmax_merge_us_b8",
          median_mesh_us(tracer_,
                         batch == 1 ? "replay.collective.softmax_merge_b1"
                                    : "replay.collective.softmax_merge_b8",
                         kDevices, kIters,
                         [&](std::size_t r, std::size_t i) {
                           (void)voltage::all_reduce_softmax_merge(
                               *fabric, workers, r, 0, partials[r], heads,
                               head_dim, 1000 + 2 * i);
                         }),
          "us");
    }
    {
      // The decoder's command broadcast: terminal (last rank) to workers.
      auto fabric = voltage::make_transport(spec_.transport, kDevices + 1);
      std::vector<Tensor> rows;
      for (std::size_t r = 0; r <= kDevices; ++r) {
        rows.push_back(random_tensor(8, f, rng_));
      }
      add("collective.broadcast_us_b8",
          median_mesh_us(tracer_, "replay.collective.broadcast_b8",
                         kDevices + 1, kIters,
                         [&](std::size_t r, std::size_t i) {
                           voltage::broadcast(*fabric, everyone, r, kDevices,
                                              rows[r], 1000 + i);
                         }),
          "us");
    }
    {
      // One [1 x F] row there and back between two devices.
      auto fabric = voltage::make_transport(spec_.transport, 2);
      const std::vector<std::byte> payload(f * sizeof(float));
      std::vector<double> us;
      const std::size_t iters = 2 * kIters;
      std::jthread echo([&] {
        for (std::size_t i = 0; i < iters; ++i) {
          voltage::Message m = fabric->recv(1, 0, 7);
          fabric->send(voltage::Message{.source = 1,
                                        .destination = 0,
                                        .tag = 8,
                                        .payload = std::move(m.payload)});
        }
      });
      for (std::size_t i = 0; i < iters; ++i) {
        const voltage::obs::TraceSpan s(tracer_, "replay.net.roundtrip",
                                        "bench", kReplayTrack);
        const Clock::time_point t0 = Clock::now();
        fabric->send(voltage::Message{
            .source = 0, .destination = 1, .tag = 7, .payload = payload});
        (void)fabric->recv(0, 1, 8);
        us.push_back(micros(t0, Clock::now()));
      }
      echo.join();
      add("net.roundtrip_us", median(std::move(us)), "us");
    }
  }

  // Single-device kernels, one thread each (the one-core-per-device model
  // the runtime runs under).
  void kernels() {
    const voltage::IntraOpScope single(1);
    const voltage::TransformerLayer& layer = model_.layers()[0];
    const std::size_t f = config().hidden;
    const std::size_t ffn = config().ffn_dim;
    {
      // Partial attention of one new row over one device's share of T.
      const std::size_t t = spec_.replay_context;
      const std::size_t share = (t + kDevices - 1) / kDevices;
      const voltage::AttentionDims dims{
          .n = t, .p = share, .f = f, .fh = config().head_dim};
      voltage::DecodeLayerCache cache;
      cache.init(voltage::select_order(voltage::OrderPolicy::kAdaptive, dims),
                 config());
      cache.append(random_tensor(share, f, rng_), layer.weights().attention);
      const Tensor x_row = random_tensor(1, f, rng_);
      add("partition.decode_attention_us",
          median_call_us(tracer_, "replay.partition.decode_attention",
                         [&] {
                           (void)voltage::decode_partial_attention(
                               x_row, cache, layer.weights().attention,
                               config());
                         }),
          "us");
    }
    const std::size_t n = spec_.replay_prefill_n;
    {
      const Tensor x = random_tensor(n, f, rng_);
      const voltage::Range own =
          voltage::PartitionScheme::even(kDevices).ranges(n)[0];
      add("partition.prefill_layer_us",
          median_call_us(tracer_, "replay.partition.prefill_layer",
                         [&] {
                           (void)voltage::partitioned_layer_forward(
                               layer, x, own, voltage::OrderPolicy::kAdaptive);
                         }),
          "us");
    }
    const Tensor rows8 = random_tensor(8, f, rng_);
    add("transformer.ffn_us_b8",
        median_call_us(tracer_, "replay.transformer.ffn",
                       [&] {
                         (void)voltage::ffn_forward(rows8, layer.weights().ffn,
                                                    config().activation);
                       }),
        "us");
    add("transformer.lm_head_us_b8",
        median_call_us(tracer_, "replay.transformer.lm_head",
                       [&] { (void)model_.postprocess_rows(rows8); }),
        "us");
    const Tensor w = random_tensor(f, ffn, rng_);
    for (const bool decode : {true, false}) {
      const std::size_t m = decode ? 8 : (n + kDevices - 1) / kDevices;
      const Tensor a = random_tensor(m, f, rng_);
      const double us = median_call_us(
          tracer_, decode ? "replay.tensor.gemm_decode" : "replay.tensor.gemm_prefill",
          [&] { (void)voltage::matmul(a, w); });
      add(decode ? "tensor.gemm_gflops_decode" : "tensor.gemm_gflops_prefill",
          2.0 * static_cast<double>(m * f * ffn) / (us * 1e3), "GFLOP/s");
    }
  }

  const WorkloadSpec& spec_;
  const voltage::TransformerModel& model_;
  voltage::obs::Tracer* tracer_;
  SeededRng rng_;
  std::vector<std::vector<TokenId>> prompts_;
  std::vector<Metric> metrics_;
};

}  // namespace

std::vector<Metric> replay_layers(const WorkloadSpec& spec,
                                  const voltage::TransformerModel& model,
                                  std::uint64_t seed,
                                  voltage::obs::Tracer* tracer) {
  if (tracer != nullptr) tracer->set_track_name(kReplayTrack, "bench replay");
  return Replay(spec, model, seed, tracer).run();
}

}  // namespace perfbench
