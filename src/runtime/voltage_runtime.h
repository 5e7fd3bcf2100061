// Real (threaded) execution of distributed inference — paper Algorithm 2.
//
// Device k = persistent worker k of a Mesh (runtime/mesh.h); the calling
// thread acts as the terminal device. All intermediate results travel
// serialized through the mesh's transport, so
// the traffic counters measure true wire volume. Weights are conceptually
// replicated on every device (the paper's deployment); in-process we share
// the one read-only model.
#pragma once

#include <span>

#include <functional>
#include <memory>

#include "net/quant_codec.h"
#include "net/transport.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "partition/order.h"
#include "partition/schedule.h"
#include "partition/scheme.h"
#include "quant/quantized_stack.h"
#include "runtime/mesh.h"
#include "transformer/model.h"

namespace voltage {

// Computes one layer's output partition T_p(x). The default executor runs
// float Algorithm 1 on the model's weights; alternatives swap the kernel
// while keeping the distribution protocol (e.g. the INT8 layers from
// src/quant, or a custom attention variant). Called concurrently from all
// device threads — must be thread-safe and read-only.
using PartitionExecutor = std::function<Tensor(
    std::size_t layer, const Tensor& x, Range p, OrderPolicy policy)>;

// Runs on the device thread before layer `layer` computes, with that
// layer's full input (see run_device_layers).
using BeforeLayer =
    std::function<void(std::size_t layer, const Tensor& input)>;

// Algorithm 2's device loop (steps 6-13), the one every partitioned
// prefill runs. For each layer l, device `i` of `workers` computes its
// output partition ranges[l][i] from the layer's full input (x for layer
// 0), then all-gathers the partitions into the next layer's input on tag
// tag_base + l. The last layer is not gathered: its partition comes back
// for the caller to send on.
//
// The kernel is `executor` when non-empty, else the int8 stack when `int8`
// is non-null (the gathers then ship int8 rows), else float Algorithm 1.
// On the float path each gather overlaps the next layer's attention
// prologue, which reads only rows this device already owns, whenever
// ranges[l+1][i] lies inside ranges[l][i]; the output is bitwise identical
// either way. `before_layer`, when set, runs first in every layer.
[[nodiscard]] std::shared_ptr<const Tensor> run_device_layers(
    Transport& transport, const std::vector<DeviceId>& workers,
    std::size_t i, std::span<const TransformerLayer> layers, const Tensor& x,
    const std::vector<std::vector<Range>>& ranges, OrderPolicy policy,
    const PartitionExecutor& executor, const QuantizedStack* int8,
    MessageTag tag_base, const RecvOptions& options,
    const BeforeLayer& before_layer = {});

class VoltageRuntime {
 public:
  // `scheme.devices()` worker devices will be simulated as threads; every
  // layer shares the scheme (the paper's default). `transport` picks the
  // wire: in-memory mailboxes or a mesh of real kernel sockets.
  VoltageRuntime(const TransformerModel& model, PartitionScheme scheme,
                 OrderPolicy policy = OrderPolicy::kAdaptive,
                 TransportKind transport = TransportKind::kInMemory);

  // Per-layer partition schedule (paper §V-B future work): each layer may
  // distribute positions differently. `schedule.num_layers()` must match
  // the model's layer count.
  VoltageRuntime(const TransformerModel& model, LayerSchedule schedule,
                 OrderPolicy policy = OrderPolicy::kAdaptive,
                 TransportKind transport = TransportKind::kInMemory);

  // Bring-your-own transport (e.g. a ChaosTransport for fault-injection
  // tests). Must have devices() == scheme devices + 1 (the terminal).
  VoltageRuntime(const TransformerModel& model, LayerSchedule schedule,
                 OrderPolicy policy, std::unique_ptr<Transport> transport);

  // Runs on a mesh shared with other runtimes (e.g. a server's decoder);
  // the mesh must have schedule-many devices. Tracer, telemetry and the
  // intra-op budget are the mesh's, so they are shared too.
  VoltageRuntime(const TransformerModel& model, LayerSchedule schedule,
                 OrderPolicy policy, std::shared_ptr<Mesh> mesh);

  // End-to-end distributed inference; returns the task logits.
  [[nodiscard]] Tensor infer(std::span<const TokenId> tokens);
  [[nodiscard]] Tensor infer(const Image& image);

  // Byte-accurate traffic since construction (worker ids 0..K-1, terminal
  // id K).
  [[nodiscard]] const Transport& fabric() const noexcept {
    return mesh_->transport();
  }
  [[nodiscard]] DeviceId terminal_id() const noexcept {
    return schedule_.devices();
  }
  [[nodiscard]] const LayerSchedule& schedule() const noexcept {
    return schedule_;
  }

  // Swaps the per-layer kernel (see PartitionExecutor). Pass {} to restore
  // the default float Algorithm 1 path.
  void set_partition_executor(PartitionExecutor executor) {
    executor_ = std::move(executor);
  }

  // Attaches a span tracer (nullptr detaches — the default). When attached,
  // every run emits per-device per-layer "layer" spans tagged with the
  // attention order Theorem 2 selected, embed/attention/ffn phase spans, and
  // all-gather/broadcast/final-send communication spans with byte counts.
  // When detached, instrumentation is a null-pointer check per site: no
  // clock reads, no allocation, no locking.
  void set_tracer(obs::Tracer* tracer) { mesh_->set_tracer(tracer); }
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return mesh_->tracer();
  }

  // Attaches transport.* counters (see Transport::set_metrics).
  void set_metrics(obs::MetricsRegistry* metrics) {
    mesh_->transport().set_metrics(metrics);
  }

  // Attaches the live telemetry hub (nullptr detaches). When attached,
  // every run reports each device's busy time so the hub can expose
  // windowed per-device utilization.
  void set_telemetry(obs::TelemetryHub* telemetry) noexcept {
    mesh_->set_telemetry(telemetry);
  }

  // Attaches the crash-dump flight recorder to the transport (see
  // Transport::set_flight_recorder): the last wire events are dumped
  // automatically when the transport is poisoned/closed.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    mesh_->transport().set_flight_recorder(recorder);
  }

  // Per-request receive budget in seconds (default 0: wait forever). When
  // set, every blocking receive of a run — broadcast, layer gathers, the
  // terminal's final collect — shares one absolute deadline computed at
  // infer() entry, so a wedged-but-alive peer surfaces as RecvTimeoutError
  // within the budget instead of hanging the mesh. The timing-out part
  // poisons the transport, so every other part unwinds too.
  void set_recv_timeout(double seconds) noexcept {
    recv_timeout_seconds_ = seconds;
  }
  [[nodiscard]] double recv_timeout() const noexcept {
    return recv_timeout_seconds_;
  }

  // The installed per-layer kernel (empty = default float path). Exposed so
  // a serving layer that rebuilds a poisoned runtime can carry it over.
  [[nodiscard]] const PartitionExecutor& partition_executor() const noexcept {
    return executor_;
  }

  // Precision::kInt8 moves the hot paths to the quantized plane: layer
  // compute runs the int8 stack (quant/quantized_stack.h) and the per-layer
  // all-gathers ship int8 + per-row scales (net/quant_codec.h), ~4x fewer
  // wire bytes. The feature broadcast and final partition sends stay fp32
  // (one-time O(NF) cost; the L gathers dominate). Ignored while a custom
  // PartitionExecutor is installed. Quantizes the model once on first use;
  // call between requests, like set_recv_timeout.
  void set_precision(Precision precision);
  [[nodiscard]] Precision precision() const noexcept { return precision_; }

  // Intra-op thread budget for each device's kernels (default 1: the
  // devices already are the parallelism, and K devices times a many-way
  // GEMM split would oversubscribe the host). Raising it lets a device use
  // `n` pool threads per GEMM / attention op — results are bitwise
  // identical at any value. 0 is clamped to 1.
  void set_intra_op_threads(std::size_t n) noexcept {
    mesh_->set_intra_op_threads(n);
  }
  [[nodiscard]] std::size_t intra_op_threads() const noexcept {
    return mesh_->intra_op_threads();
  }

 private:
  [[nodiscard]] Tensor run(Tensor features);

  const TransformerModel& model_;
  LayerSchedule schedule_;
  OrderPolicy policy_;
  PartitionExecutor executor_;  // empty = default float path
  Precision precision_ = Precision::kFp32;
  std::unique_ptr<QuantizedStack> qstack_;  // built by set_precision(kInt8)
  std::shared_ptr<Mesh> mesh_;
  double recv_timeout_seconds_ = 0.0;  // <= 0: no deadline
};

}  // namespace voltage
