#include "runtime/voltage_runtime.h"

#include <array>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "collective/collectives.h"
#include "partition/partitioned_layer.h"
#include "tensor/serialize.h"

namespace voltage {

namespace {

// Tag layout: one tag per layer's all-gather, well clear of the
// broadcast/final tags.
constexpr MessageTag kTagBroadcast = 1;
constexpr MessageTag kTagFinal = 2;
constexpr MessageTag kTagLayerBase = 16;

}  // namespace

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               PartitionScheme scheme, OrderPolicy policy,
                               TransportKind transport)
    : VoltageRuntime(model,
                     LayerSchedule::uniform(std::move(scheme),
                                            model.spec().num_layers),
                     policy, transport) {}

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               LayerSchedule schedule, OrderPolicy policy,
                               TransportKind transport)
    : VoltageRuntime(model, schedule, policy,
                     make_transport(transport, schedule.devices() + 1)) {}

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               LayerSchedule schedule, OrderPolicy policy,
                               std::unique_ptr<Transport> transport)
    : VoltageRuntime(model, std::move(schedule), policy,
                     std::make_shared<Mesh>(std::move(transport))) {}

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               LayerSchedule schedule, OrderPolicy policy,
                               std::shared_ptr<Mesh> mesh)
    : model_(model),
      schedule_(std::move(schedule)),
      policy_(policy),
      mesh_(std::move(mesh)) {
  if (schedule_.num_layers() != model_.spec().num_layers) {
    throw std::invalid_argument(
        "VoltageRuntime: schedule layer count does not match the model");
  }
  if (mesh_->devices() != schedule_.devices()) {
    throw std::invalid_argument(
        "VoltageRuntime: transport must have one endpoint per worker plus "
        "the terminal");
  }
}

void VoltageRuntime::set_precision(Precision precision) {
  if (precision == Precision::kInt8 && qstack_ == nullptr) {
    qstack_ = std::make_unique<QuantizedStack>(model_);
  }
  precision_ = precision;
}

Tensor VoltageRuntime::infer(std::span<const TokenId> tokens) {
  // Adopt the caller's request trace id (e.g. the server's per-request id)
  // or mint a fresh one, so every span and wire message of this run — on
  // all K device threads — carries the same causal id.
  const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
  Tensor features(0, 0);
  {
    obs::TraceSpan span(tracer(), "embed", "compute",
                        static_cast<obs::TrackId>(terminal_id()));
    span.device(static_cast<std::int64_t>(terminal_id()));
    features = model_.preprocess(tokens);
  }
  return run(std::move(features));
}

Tensor VoltageRuntime::infer(const Image& image) {
  const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
  Tensor features(0, 0);
  {
    obs::TraceSpan span(tracer(), "embed", "compute",
                        static_cast<obs::TrackId>(terminal_id()));
    span.device(static_cast<std::int64_t>(terminal_id()));
    features = model_.preprocess(image);
  }
  return run(std::move(features));
}

Tensor VoltageRuntime::run(Tensor features) {
  const std::size_t k = schedule_.devices();
  const std::size_t n = features.rows();
  const std::size_t f = features.cols();
  const DeviceId terminal = terminal_id();
  // Per-layer position assignments (identical rows when the schedule is
  // uniform — the paper's default).
  std::vector<std::vector<Range>> ranges(schedule_.num_layers());
  for (std::size_t l = 0; l < schedule_.num_layers(); ++l) {
    ranges[l] = schedule_.scheme_for(l).ranges(n);
  }

  // Broadcast group: workers + terminal (root).
  std::vector<DeviceId> everyone(k + 1);
  std::iota(everyone.begin(), everyone.end(), DeviceId{0});
  std::vector<DeviceId> workers(k);
  std::iota(workers.begin(), workers.end(), DeviceId{0});

  const auto layers = model_.layers();

  // One absolute deadline for the whole request (see set_recv_timeout);
  // default-constructed options wait forever, the pre-failure behavior.
  const RecvOptions recv_opts = RecvOptions::within(recv_timeout_seconds_);

  // The quantized plane, when selected and no custom kernel overrides it.
  const QuantizedStack* const int8 =
      precision_ == Precision::kInt8 && !executor_ ? qstack_.get() : nullptr;

  Transport& transport = mesh_->transport();
  obs::Tracer* const tracer = mesh_->tracer();

  const auto device_part = [&](std::size_t i) {
    // Algorithm 2, step 3: receive the distributed input features.
    Tensor x(0, 0);
    broadcast(transport, everyone, i, k, x, kTagBroadcast, recv_opts);
    std::shared_ptr<const Tensor> last =
        run_device_layers(transport, workers, i, layers, x, ranges, policy_,
                          executor_, int8, kTagLayerBase, recv_opts);
    // Step 8: the last layer's partition goes straight to the terminal.
    Payload payload = tensor_payload_view(std::move(last));
    obs::TraceSpan span(tracer, "send_final", "comm",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i))
        .layer(static_cast<std::int64_t>(layers.size() - 1))
        .bytes(static_cast<std::int64_t>(payload.size() + kWireFrameBytes));
    transport.send(Message{.source = i,
                           .destination = terminal,
                           .tag = kTagFinal,
                           .payload = std::move(payload)});
  };

  // Terminal role: distribute features, collect final partitions, and
  // post-process them into the user-facing result (steps 16-17).
  Tensor result(0, 0);
  const auto terminal_part = [&] {
    broadcast(transport, everyone, k, k, features, kTagBroadcast, recv_opts);
    Tensor hidden(n, f);
    {
      // Final partitions land in arrival order, each deserialized straight
      // into the assembled hidden buffer at its range's row offset.
      obs::TraceSpan span(tracer, "collect_final", "comm",
                          static_cast<obs::TrackId>(terminal));
      span.device(static_cast<std::int64_t>(terminal));
      const std::vector<Range>& final_ranges = ranges.back();
      std::vector<bool> seen(k, false);
      for (std::size_t received = 0; received < k; ++received) {
        const Message m = transport.recv_any(terminal, kTagFinal, recv_opts);
        if (m.source >= k || seen[m.source]) {
          throw std::runtime_error("VoltageRuntime: unexpected final sender");
        }
        seen[m.source] = true;
        const WireShape shape =
            deserialize_into(m.payload, hidden, final_ranges[m.source].begin);
        if (shape.rows != final_ranges[m.source].size()) {
          throw std::runtime_error(
              "VoltageRuntime: final partition size mismatch");
        }
      }
    }
    obs::TraceSpan span(tracer, "postprocess", "compute",
                        static_cast<obs::TrackId>(terminal));
    span.device(static_cast<std::int64_t>(terminal));
    result = model_.postprocess(hidden);
  };

  mesh_->run(device_part, terminal_part);
  return result;
}

std::shared_ptr<const Tensor> run_device_layers(
    Transport& transport, const std::vector<DeviceId>& workers,
    std::size_t i, std::span<const TransformerLayer> layers, const Tensor& x,
    const std::vector<std::vector<Range>>& ranges, OrderPolicy policy,
    const PartitionExecutor& executor, const QuantizedStack* int8,
    MessageTag tag_base, const RecvOptions& options,
    const BeforeLayer& before_layer) {
  const std::size_t n = x.rows();
  const std::size_t f = x.cols();
  const bool fp32 = !executor && int8 == nullptr;
  const Precision wire =
      !executor && int8 != nullptr ? Precision::kInt8 : Precision::kFp32;
  obs::Tracer* const tracer = obs::thread_tracer();
  // Comm-path buffers, allocated once and reused for every layer: two
  // full-sequence buffers (gather l writes seq[l%2] while layer l still
  // reads its input from seq[(l-1)%2]) and two shared partition holders
  // whose storage outgoing payloads borrow. holders[l%2] is safe to reuse
  // at layer l+2: completing gather l+1 means every peer finished gather l
  // first, i.e. consumed the layer-l message, and that consumption
  // happens-before our reuse via the mailbox mutex chain. The use_count
  // check below is a defensive fallback (e.g. a slow terminal still holding
  // the final payload) — it never fires in the steady-state layer loop,
  // which therefore performs zero heap allocations on the comm path.
  std::array<Tensor, 2> seq{Tensor(n, f), Tensor(n, f)};
  std::array<std::shared_ptr<Tensor>, 2> holders{
      std::make_shared<Tensor>(0, 0), std::make_shared<Tensor>(0, 0)};
  const Tensor* input = &x;
  AttentionPrologue prologue;
  bool have_prologue = false;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const obs::ThreadLayerScope layer_scope(static_cast<std::int64_t>(l));
    if (before_layer) before_layer(l, *input);
    const Range own = ranges[l][i];
    // Step 6: compute the assigned output partition (Algorithm 1, or
    // whatever kernel replaces it). If the previous iteration overlapped
    // this layer's attention prologue with its gather, resume from it.
    Tensor part(0, 0);
    {
      obs::TraceSpan span(tracer, "layer", "compute",
                          static_cast<obs::TrackId>(i));
      if (span.enabled()) {
        const LayerConfig& config = layers[l].config();
        const AttentionDims dims{.n = n,
                                 .p = own.size(),
                                 .f = config.hidden,
                                 .fh = config.head_dim};
        const char* const order = to_string(select_order(policy, dims));
        span.device(static_cast<std::int64_t>(i))
            .layer(static_cast<std::int64_t>(l))
            .tag(wire == Precision::kInt8 ? std::string("int8 ") + order
                                          : std::string(order));
      }
      part = executor   ? executor(l, *input, own, policy)
           : int8       ? int8->partition_forward(l, *input, own, policy)
                        : partitioned_layer_forward(
                              layers[l], *input, own, policy,
                              have_prologue ? &prologue : nullptr);
    }
    have_prologue = false;
    // Park the partition in a shared holder; outgoing messages borrow its
    // rows instead of serializing them.
    auto& holder = holders[l % 2];
    if (holder.use_count() == 1) {
      *holder = std::move(part);
    } else {
      holder = std::make_shared<Tensor>(std::move(part));
    }
    if (l + 1 == layers.size()) return holder;
    // Steps 10-13: post the zero-copy gather, overlap the next layer's
    // Q-chain (Eq. (8) reads only x_p) with the in-flight peer rows, then
    // block for the rest.
    AllGatherInto gather(transport, workers, i, holder, ranges[l],
                         seq[l % 2], tag_base + l, options, wire);
    const Range next = ranges[l + 1][i];
    if (fp32 && !next.empty() && own.begin <= next.begin &&
        next.end <= own.end) {
      obs::TraceSpan span(tracer, "overlap_compute", "compute",
                          static_cast<obs::TrackId>(i));
      span.device(static_cast<std::int64_t>(i))
          .layer(static_cast<std::int64_t>(l + 1));
      Tensor sliced(0, 0);
      if (next != own) {
        sliced = holder->slice_rows(next.begin - own.begin,
                                    next.end - own.begin);
      }
      prologue = attention_prologue(next == own ? *holder : sliced, n, next,
                                    layers[l + 1].weights().attention,
                                    layers[l + 1].config(), policy);
      have_prologue = true;
    }
    gather.wait();
    input = &seq[l % 2];
  }
  throw std::invalid_argument("run_device_layers: no layers");
}

}  // namespace voltage
