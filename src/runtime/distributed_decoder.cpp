#include "runtime/distributed_decoder.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "collective/collectives.h"
#include "collective/softmax_merge.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "transformer/ffn.h"

namespace voltage {

namespace {

// Command protocol: the terminal broadcasts one [R x kCmdCols] (or, for an
// fp32 step, [R x kCmdCols+F] with each row's embedded token row appended)
// tensor per call — R is 1 for everything except a step round, where each
// row is one window position of one lane: consecutive rows naming the same
// slot form that slot's verify window (committed prefix first, then
// drafts), so a batched step, an extend and a speculative verify are all
// the same wire shape. Floats carry the fields exactly — positions,
// opcodes, slot and token ids are small integers, far below 2^24. Column 2
// flags the int8 plane for this command; an int8 step keeps the command at
// kCmdCols and ships the token rows as one separate quantized [R x F]
// broadcast on kTagToken (per-row scales don't mix with opcodes).
constexpr std::size_t kCmdCols = 7;  // {opcode, arg, int8_flag, timeout_s,
                                     //  slot, token, committed}
constexpr float kOpPrime = 1.0F;     // arg = prompt length; col 4 = slot
constexpr float kOpStep = 2.0F;      // per row: arg = position, col 4 = slot,
                                     // col 5 = token id, col 6 = 1 if the
                                     // row is pre-committed (0 = draft)
constexpr float kOpRelease = 5.0F;   // col 4 = slot: free its KV blocks

// Tag layout. Commands, prefill features, the final row and the int8 step
// token rows live on fixed tags; each layer gets one prefill-gather tag and a
// pair of merge tags (softmax_merge uses tag and tag+1). Reusing tags across
// steps is safe: transport matching is FIFO per (source, tag).
constexpr MessageTag kTagCmd = 1;
constexpr MessageTag kTagFeatures = 2;
constexpr MessageTag kTagFinal = 4;
constexpr MessageTag kTagToken = 5;
constexpr MessageTag kTagPrefillGatherBase = 64;
constexpr MessageTag kTagMergeBase = 4096;

}  // namespace

DistributedDecoder::DistributedDecoder(const TransformerModel& model,
                                       PartitionScheme scheme,
                                       OrderPolicy policy,
                                       TransportKind transport)
    : DistributedDecoder(model, scheme, policy,
                         make_transport(transport, scheme.devices() + 1)) {}

DistributedDecoder::DistributedDecoder(const TransformerModel& model,
                                       PartitionScheme scheme,
                                       OrderPolicy policy,
                                       std::unique_ptr<Transport> transport)
    : DistributedDecoder(model, std::move(scheme), policy,
                         std::make_shared<Mesh>(std::move(transport))) {}

DistributedDecoder::DistributedDecoder(const TransformerModel& model,
                                       PartitionScheme scheme,
                                       OrderPolicy policy,
                                       std::shared_ptr<Mesh> mesh)
    : model_(model),
      scheme_(std::move(scheme)),
      policy_(policy),
      mesh_(std::move(mesh)) {
  if (model_.spec().kind != ModelKind::kCausalLm) {
    throw std::invalid_argument("DistributedDecoder: needs a causal LM");
  }
  const std::size_t k = scheme_.devices();
  if (mesh_->devices() != k) {
    throw std::invalid_argument(
        "DistributedDecoder: transport must have one endpoint per worker "
        "plus the terminal");
  }
  everyone_.resize(k + 1);
  std::iota(everyone_.begin(), everyone_.end(), DeviceId{0});
  workers_.resize(k);
  std::iota(workers_.begin(), workers_.end(), DeviceId{0});
  devices_.resize(k);
}

void DistributedDecoder::run(const Mesh::TerminalPart& terminal_part) {
  mesh_->run([this](std::size_t i) { serve_command(i); }, terminal_part);
}

void DistributedDecoder::set_precision(Precision precision) {
  if (precision == Precision::kInt8 && qstack_ == nullptr) {
    qstack_ = std::make_unique<QuantizedStack>(model_);
  }
  precision_ = precision;
}

void DistributedDecoder::set_metrics(obs::MetricsRegistry* metrics) {
  mesh_->transport().set_metrics(metrics);
  decode_tokens_ = metrics == nullptr ? nullptr
                                      : &metrics->counter("decode.tokens");
}

std::size_t DistributedDecoder::slot_position(SlotId slot) const {
  if (!slot_active(slot)) {
    throw std::out_of_range("DistributedDecoder: inactive slot");
  }
  return slots_[slot].position;
}

// ---------------------------------------------------------------------------
// Worker side

void DistributedDecoder::serve_command(std::size_t i) {
  const std::size_t k = scheme_.devices();
  DeviceState& device = devices_[i];
  // No deadline on the command itself: the terminal sends it right away,
  // and poisoning wakes us if the terminal fails first. Receiving it adopts
  // the call's trace id (net/fabric.cpp).
  Tensor cmd(0, 0);
  broadcast(mesh_->transport(), everyone_, i, k, cmd, kTagCmd);
  if (cmd.rows() < 1 || cmd.cols() < kCmdCols) {
    throw std::runtime_error("DistributedDecoder: malformed command");
  }
  const float op = cmd(0, 0);
  // Per-request deadline, fixed by the terminal at call entry and shared by
  // every blocking receive this command triggers.
  const RecvOptions options =
      RecvOptions::within(static_cast<double>(cmd(0, 3)));
  const Precision wire =
      cmd(0, 2) != 0.0F ? Precision::kInt8 : Precision::kFp32;
  if (wire == Precision::kInt8 && qstack_ == nullptr) {
    throw std::logic_error(
        "DistributedDecoder: int8 command without a quantized stack");
  }
  if (op == kOpPrime) {
    const auto slot = static_cast<std::size_t>(cmd(0, 4));
    const auto n = static_cast<std::size_t>(cmd(0, 1));
    if (device.pool == nullptr) {
      device.pool = std::make_unique<KvBlockPool>(
          kv_block_floats(model_.spec().layer), kv_block_limit_);
    }
    if (slot >= device.slots.size()) device.slots.resize(slot + 1);
    WorkerSlot& s = device.slots[slot];
    s.caches.resize(model_.spec().num_layers);
    s.prompt_len = n;
    s.active = true;
    worker_prefill(i, n, s.caches, device.pool.get(), options,
                   obs::thread_tracer(), wire);
  } else if (op == kOpStep) {
    worker_step_windows(i, device.slots, cmd, options, obs::thread_tracer(),
                        wire);
  } else if (op == kOpRelease) {
    const auto slot = static_cast<std::size_t>(cmd(0, 4));
    if (slot < device.slots.size()) {
      for (DecodeLayerCache& cache : device.slots[slot].caches) {
        cache.release();
      }
      device.slots[slot].active = false;
      device.slots[slot].prompt_len = 0;
    }
  } else {
    throw std::runtime_error("DistributedDecoder: unknown opcode");
  }
}

void DistributedDecoder::worker_prefill(std::size_t i, std::size_t n,
                                        std::vector<DecodeLayerCache>& caches,
                                        KvBlockPool* pool,
                                        const RecvOptions& options,
                                        obs::Tracer* tracer, Precision wire) {
  const std::size_t k = scheme_.devices();
  const auto layers = model_.layers();
  // Algorithm 2 prefill with two decode twists: every layer banks this
  // device's input rows into its resident cache, and the last layer skips
  // the gather entirely — only the owner of row n-1 sends that single row
  // (the LM head reads nothing else).
  Tensor x(0, 0);
  broadcast(mesh_->transport(), everyone_, i, k, x, kTagFeatures, options);
  const std::vector<Range> ranges = scheme_.ranges(n);
  const Range own = ranges[i];
  const auto bank = [&](std::size_t l, const Tensor& input) {
    // Theorem 2 at the prefill shape fixes this (layer, device)'s resident
    // form for the whole sequence: naive layers cache K/V, reordered layers
    // cache the raw input rows.
    const LayerConfig& config = layers[l].config();
    const AttentionDims dims{.n = n,
                             .p = own.size(),
                             .f = config.hidden,
                             .fh = config.head_dim};
    caches[l].init(select_order(policy_, dims), config, pool);
    if (!own.empty()) {
      caches[l].append(input.slice_rows(own.begin, own.end),
                       layers[l].weights().attention);
    }
  };
  const std::shared_ptr<const Tensor> last = run_device_layers(
      mesh_->transport(), workers_, i, layers, x,
      std::vector<std::vector<Range>>(layers.size(), ranges),
      policy_, {}, wire == Precision::kInt8 ? qstack_.get() : nullptr,
      kTagPrefillGatherBase, options, bank);
  if (!own.contains(n - 1)) return;
  auto last_row = std::make_shared<const Tensor>(
      last->slice_rows(n - 1 - own.begin, n - own.begin));
  Payload payload = tensor_payload_view(std::move(last_row));
  obs::TraceSpan span(tracer, "send_final", "comm",
                      static_cast<obs::TrackId>(i));
  span.device(static_cast<std::int64_t>(i))
      .layer(static_cast<std::int64_t>(layers.size() - 1))
      .bytes(static_cast<std::int64_t>(payload.size() + kWireFrameBytes));
  mesh_->transport().send(Message{.source = i,
                                  .destination = terminal_id(),
                                  .tag = kTagFinal,
                                  .payload = std::move(payload)});
}

void DistributedDecoder::worker_step_windows(std::size_t i,
                                             std::vector<WorkerSlot>& slots,
                                             const Tensor& cmd,
                                             const RecvOptions& options,
                                             obs::Tracer* tracer,
                                             Precision wire) {
  const std::size_t k = scheme_.devices();
  const auto layers = model_.layers();
  const std::size_t f = model_.spec().layer.hidden;
  const bool int8 = wire == Precision::kInt8;
  const std::size_t rows_total = cmd.rows();
  Tensor x(rows_total, f);
  if (int8) {
    // The token rows follow the command as one quantized [R x F] broadcast;
    // every worker dequantizes the same payload, so x is identical on all
    // ranks (the redundant-tail invariant below depends on this). Per-row
    // scales make each dequantized row independent of its batch-mates.
    if (cmd.cols() != kCmdCols) {
      throw std::runtime_error("DistributedDecoder: malformed step command");
    }
    Tensor rows(0, 0);
    broadcast(mesh_->transport(), everyone_, i, k, rows, kTagToken, options);
    if (rows.rows() != rows_total || rows.cols() != f) {
      throw std::runtime_error("DistributedDecoder: malformed token rows");
    }
    x = std::move(rows);
  } else {
    if (cmd.cols() != kCmdCols + f) {
      throw std::runtime_error("DistributedDecoder: malformed step command");
    }
    for (std::size_t r = 0; r < rows_total; ++r) {
      std::copy_n(cmd.row(r).data() + kCmdCols, f, x.row(r).data());
    }
  }
  // Group the command rows into per-slot verify windows (consecutive rows
  // naming the same slot) and resolve every row before computing: each
  // window names a primed slot, and each row's owner is round-robin *within
  // that slot* — exactly the assignment a sequential run of the slot would
  // make, which is what keeps per-slot cache contents (and thus the math)
  // identical under batching and speculation.
  struct WorkerWindow {
    std::size_t begin = 0;      // first command row
    std::size_t end = 0;        // one past the last
    std::size_t committed = 0;  // leading pre-committed rows
    WorkerSlot* slot = nullptr;
  };
  std::vector<WorkerWindow> windows;
  std::vector<std::size_t> owner(rows_total);
  for (std::size_t r = 0; r < rows_total; ++r) {
    const auto slot = static_cast<std::size_t>(cmd(r, 4));
    const auto t = static_cast<std::size_t>(cmd(r, 1));
    if (slot >= slots.size() || !slots[slot].active) {
      throw std::logic_error("DistributedDecoder: step before prime");
    }
    owner[r] = (t - slots[slot].prompt_len) % k;
    const bool committed = cmd(r, 6) != 0.0F;
    if (windows.empty() || windows.back().slot != &slots[slot]) {
      windows.push_back(WorkerWindow{.begin = r,
                                     .end = r + 1,
                                     .committed = committed ? 1U : 0U,
                                     .slot = &slots[slot]});
      if (!committed) {
        throw std::runtime_error(
            "DistributedDecoder: window starts with a draft row");
      }
    } else {
      WorkerWindow& w = windows.back();
      if (committed && w.committed != w.end - w.begin) {
        throw std::runtime_error(
            "DistributedDecoder: committed row after a draft row");
      }
      w.end = r + 1;
      if (committed) ++w.committed;
    }
  }
  // Per-window ownership masks, shared by every layer's attention call.
  std::vector<std::vector<bool>> owned_masks(windows.size());
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const WorkerWindow& win = windows[wi];
    owned_masks[wi].resize(win.end - win.begin);
    for (std::size_t j = 0; j < owned_masks[wi].size(); ++j) {
      owned_masks[wi][j] = owner[win.begin + j] == i;
    }
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const obs::ThreadLayerScope layer_scope(static_cast<std::int64_t>(l));
    const LayerConfig& config = layers[l].config();
    const LayerWeights& w = layers[l].weights();
    Tensor partials(0, 0);
    {
      obs::TraceSpan span(tracer, "decode_attention", "compute",
                          static_cast<obs::TrackId>(i));
      span.device(static_cast<std::int64_t>(i))
          .layer(static_cast<std::int64_t>(l))
          .batch(static_cast<std::int64_t>(rows_total));
      // One batched attention call covers every window: the query-side
      // projections are hoisted into per-head [R x .] GEMMs, while each
      // owned row is still appended *before* it attends, in window order —
      // rows see themselves and the window's earlier positions, never a
      // later draft (the intra-window causal mask, by construction).
      std::vector<DecodeWindowRef> refs;
      refs.reserve(windows.size());
      for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        refs.push_back(DecodeWindowRef{.begin = windows[wi].begin,
                                       .end = windows[wi].end,
                                       .owned = &owned_masks[wi],
                                       .cache = &windows[wi].slot->caches[l]});
      }
      partials = decode_windows_partial_attention(
          x, std::span<const DecodeWindowRef>(refs.data(), refs.size()),
          w.attention, config);
    }
    // One merge round for every window position of every lane: row r of
    // every rank's partial is command row r, and the root folds each row in
    // the same fixed rank order a single-lane step uses — k draft positions
    // ride the message count of one token.
    const Tensor merged = all_reduce_softmax_merge(
        mesh_->transport(), workers_, i, l % k, partials, config.heads,
        config.head_dim, kTagMergeBase + 2 * l, options);
    // Post-attention tail on the R rows, redundantly on every device — all
    // ranks leave the layer with bitwise-identical x, so the layer output
    // is never gathered. Every tail op (merge-finalize GEMM, residual,
    // LayerNorm, FFN) is bitwise row-independent, so each row equals a
    // sequential step of its slot; the int8 tail keeps the invariant via
    // per-row activation scales.
    if (int8) {
      x = qstack_->decode_step_tail(l, merged, x);
    } else {
      Tensor attn = softmax_merge_finalize(merged, w.attention, config);
      add_inplace(attn, x);
      const Tensor y =
          layernorm_rows(attn, w.ln_attention.gamma, w.ln_attention.beta);
      Tensor ff = ffn_forward(y, w.ffn, config.activation);
      add_inplace(ff, y);
      x = layernorm_rows(ff, w.ln_ffn.gamma, w.ln_ffn.beta);
    }
  }
  // Every worker holds the identical final rows; rank 0 reports them first
  // so the terminal's LM head overlaps with the workers' acceptance pass.
  const auto final_rows = std::make_shared<const Tensor>(std::move(x));
  if (i == 0) {
    Payload payload = tensor_payload_view(final_rows);
    obs::TraceSpan span(tracer, "send_final", "comm",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i))
        .batch(static_cast<std::int64_t>(rows_total))
        .bytes(static_cast<std::int64_t>(payload.size() + kWireFrameBytes));
    mesh_->transport().send(Message{.source = i,
                             .destination = terminal_id(),
                             .tag = kTagFinal,
                             .payload = std::move(payload)});
  }
  // Greedy longest-prefix acceptance, redundantly on every rank: the LM
  // head is row-independent (postprocess_rows row r is bitwise equal to
  // postprocess on that row alone), so all ranks — and the terminal — derive
  // the *same* accepted count from the same final rows, with zero extra
  // wire traffic. Each rank then truncates the rejected tail rows it owns
  // from its own caches, restoring exactly the sequential-decode state.
  for (const WorkerWindow& win : windows) {
    const std::size_t width = win.end - win.begin;
    if (win.committed == width) continue;  // no drafts to judge
    obs::TraceSpan span(tracer, "spec_commit", "compute",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i));
    const Tensor logits = model_.postprocess_rows(final_rows->slice_rows(
        win.begin + win.committed - 1, win.end - 1));
    std::size_t accepted = 0;
    while (accepted < width - win.committed) {
      const std::size_t draft_row = win.begin + win.committed + accepted;
      const auto draft = static_cast<TokenId>(cmd(draft_row, 5));
      if (static_cast<TokenId>(argmax_row(logits, accepted)) != draft) break;
      ++accepted;
    }
    span.accepted(static_cast<std::int64_t>(accepted));
    std::size_t drop_owned = 0;
    for (std::size_t j = win.committed + accepted; j < width; ++j) {
      if (owner[win.begin + j] == i) ++drop_owned;
    }
    if (drop_owned == 0) continue;
    for (DecodeLayerCache& cache : win.slot->caches) {
      cache.truncate(drop_owned);
    }
  }
}

// ---------------------------------------------------------------------------
// Terminal side

Tensor DistributedDecoder::prime(std::span<const TokenId> prompt) {
  if (prompt.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty prompt");
  }
  if (prompt.size() > model_.spec().max_positions) {
    throw std::length_error("DistributedDecoder: prompt exceeds the window");
  }
  // Starting over: free every live slot so the prompt lands in slot 0 with
  // the whole KV arena available.
  for (SlotId s = 0; s < slots_.size(); ++s) {
    if (slots_[s].active) release_slot(s);
  }
  return prime_slot(prompt).logits;
}

DistributedDecoder::PrimedSlot DistributedDecoder::prime_slot(
    std::span<const TokenId> prompt) {
  if (prompt.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty prompt");
  }
  if (prompt.size() > model_.spec().max_positions) {
    throw std::length_error("DistributedDecoder: prompt exceeds the window");
  }
  // Lowest free slot; ids recycle after release so the command field and
  // worker-side vectors stay small.
  SlotId slot = slots_.size();
  for (SlotId s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].active) {
      slot = s;
      break;
    }
  }
  if (slot == slots_.size()) slots_.emplace_back();
  const std::size_t k = scheme_.devices();
  // Embed before touching the mesh: a bad token id throws here without
  // poisoning anything.
  Tensor features = model_.preprocess(prompt);
  // One causal id per request: adopt the caller's (e.g. the server's
  // per-request scope) or mint a fresh one. The mesh hands it to every
  // device.
  const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
  const RecvOptions options = RecvOptions::within(recv_timeout_seconds_);
  Transport& transport = mesh_->transport();
  const std::uint64_t bytes_before = transport.total_stats().bytes_sent;
  obs::TraceSpan span(mesh_->tracer(), "decode.prefill", "serve",
                      static_cast<obs::TrackId>(terminal_id()));
  span.device(static_cast<std::int64_t>(terminal_id()))
      .request(static_cast<std::int64_t>(prompt.size()));
  Tensor logits(0, 0);
  run([&] {
    Tensor cmd(1, kCmdCols);
    cmd(0, 0) = kOpPrime;
    cmd(0, 1) = static_cast<float>(prompt.size());
    cmd(0, 2) = precision_ == Precision::kInt8 ? 1.0F : 0.0F;
    cmd(0, 3) = static_cast<float>(recv_timeout_seconds_);
    cmd(0, 4) = static_cast<float>(slot);
    broadcast(transport, everyone_, k, k, cmd, kTagCmd, options);
    broadcast(transport, everyone_, k, k, features, kTagFeatures, options);
    const Tensor last_row = tensor_from_payload(
        transport.recv_any(terminal_id(), kTagFinal, options).payload);
    logits = model_.postprocess(last_row);
  });
  slots_[slot] = SlotMeta{
      .active = true, .position = prompt.size(), .prompt_len = prompt.size()};
  span.bytes(static_cast<std::int64_t>(transport.total_stats().bytes_sent -
                                       bytes_before));
  return PrimedSlot{.slot = slot, .logits = std::move(logits)};
}

Tensor DistributedDecoder::step(TokenId token) {
  if (slots_.empty() || !slots_[0].active) {
    throw std::logic_error("DistributedDecoder: prime() before step()");
  }
  const SlotToken lane{.slot = 0, .token = token};
  return step_batch(std::span<const SlotToken>(&lane, 1));
}

DistributedDecoder::WindowRound DistributedDecoder::run_window_round(
    std::span<const WindowSpec> windows) {
  if (windows.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty batch");
  }
  // Validate every window before touching the mesh: a bad slot or an
  // exhausted context window throws without poisoning anything. Drafts
  // were already trimmed to the remaining window by the caller, so any
  // overflow here is a committed-token overflow.
  std::size_t rows_total = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowSpec& win = windows[w];
    if (!slot_active(win.slot)) {
      throw std::logic_error("DistributedDecoder: prime() before step()");
    }
    if (win.committed < 1 || win.committed > win.tokens.size()) {
      throw std::invalid_argument("DistributedDecoder: malformed window");
    }
    if (slots_[win.slot].position + win.tokens.size() >
        model_.spec().max_positions) {
      throw std::length_error("DistributedDecoder: context window exhausted");
    }
    for (std::size_t q = 0; q < w; ++q) {
      if (windows[q].slot == win.slot) {
        throw std::invalid_argument(
            "DistributedDecoder: duplicate slot in batch");
      }
    }
    rows_total += win.tokens.size();
  }
  const std::size_t k = scheme_.devices();
  const std::size_t f = model_.spec().layer.hidden;
  // Embed every window row at its own position before touching the mesh —
  // a bad token id (draft or committed) throws here, mesh untouched.
  Tensor rows(rows_total, f);
  std::vector<std::size_t> row_begin(windows.size());
  {
    std::size_t r = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      row_begin[w] = r;
      const Tensor block = model_.preprocess_at(
          std::span<const TokenId>(windows[w].tokens),
          slots_[windows[w].slot].position);
      for (std::size_t j = 0; j < block.rows(); ++j, ++r) {
        std::copy_n(block.row(j).data(), f, rows.row(r).data());
      }
    }
  }
  const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
  const RecvOptions options = RecvOptions::within(recv_timeout_seconds_);
  Transport& transport = mesh_->transport();
  const std::uint64_t bytes_before = transport.total_stats().bytes_sent;
  obs::TraceSpan span(mesh_->tracer(), "decode.step", "serve",
                      static_cast<obs::TrackId>(terminal_id()));
  span.device(static_cast<std::int64_t>(terminal_id()))
      .request(static_cast<std::int64_t>(slots_[windows[0].slot].position))
      .batch(static_cast<std::int64_t>(windows.size()));
  // fp32 step command with the embedded rows inlined: one broadcast carries
  // both the per-row control words and the O(R*F) activation payload. The
  // int8 plane keeps the command minimal and ships the rows as one
  // quantized broadcast — R*F bytes plus R scales instead of 4RF. Either
  // way the round's *message count* is that of a single-token step: the
  // draft rows ride broadcasts and merges that happen anyway.
  const bool int8 = precision_ == Precision::kInt8;
  Tensor cmd(rows_total, int8 ? kCmdCols : kCmdCols + f);
  {
    std::size_t r = 0;
    for (const WindowSpec& win : windows) {
      for (std::size_t j = 0; j < win.tokens.size(); ++j, ++r) {
        cmd(r, 0) = kOpStep;
        cmd(r, 1) = static_cast<float>(slots_[win.slot].position + j);
        cmd(r, 2) = int8 ? 1.0F : 0.0F;
        cmd(r, 3) = static_cast<float>(recv_timeout_seconds_);
        cmd(r, 4) = static_cast<float>(win.slot);
        cmd(r, 5) = static_cast<float>(win.tokens[j]);
        cmd(r, 6) = j < win.committed ? 1.0F : 0.0F;
        if (!int8) {
          std::copy_n(rows.row(r).data(), f, cmd.row(r).data() + kCmdCols);
        }
      }
    }
  }
  WindowRound round{.logits = Tensor(0, 0),
                    .row_begin = std::move(row_begin),
                    .accepted = std::vector<std::size_t>(windows.size(), 0)};
  run([&] {
    broadcast(transport, everyone_, k, k, cmd, kTagCmd, options);
    if (int8) {
      broadcast(transport, everyone_, k, k, rows, kTagToken, options,
                Precision::kInt8);
    }
    const Tensor last_rows = tensor_from_payload(
        transport.recv(terminal_id(), DeviceId{0}, kTagFinal, options)
            .payload);
    if (last_rows.rows() != rows_total) {
      throw std::runtime_error("DistributedDecoder: malformed final rows");
    }
    // The LM head runs while the devices finish their acceptance pass.
    round.logits = model_.postprocess_rows(last_rows);
  });
  // Greedy longest-prefix acceptance — the same pass every worker runs on
  // the identical final rows (postprocess_rows is row-independent), so
  // terminal and workers agree on the commit frontier without another
  // round-trip.
  std::size_t committed_total = 0;
  std::size_t drafts_total = 0;
  std::size_t accepted_total = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowSpec& win = windows[w];
    const std::size_t drafts = win.tokens.size() - win.committed;
    std::size_t accepted = 0;
    while (accepted < drafts) {
      const std::size_t logits_row =
          round.row_begin[w] + win.committed - 1 + accepted;
      const TokenId draft = win.tokens[win.committed + accepted];
      if (static_cast<TokenId>(argmax_row(round.logits, logits_row)) !=
          draft) {
        break;
      }
      ++accepted;
    }
    round.accepted[w] = accepted;
    slots_[win.slot].position += win.committed + accepted;
    committed_total += win.committed + accepted;
    drafts_total += drafts;
    accepted_total += accepted;
  }
  if (decode_tokens_ != nullptr) {
    decode_tokens_->add(static_cast<std::uint64_t>(committed_total));
  }
  span.tokens(static_cast<std::int64_t>(committed_total))
      .drafts(static_cast<std::int64_t>(drafts_total))
      .accepted(static_cast<std::int64_t>(accepted_total))
      .bytes(static_cast<std::int64_t>(transport.total_stats().bytes_sent -
                                       bytes_before));
  return round;
}

Tensor DistributedDecoder::step_batch(std::span<const SlotToken> batch) {
  if (batch.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty batch");
  }
  std::vector<WindowSpec> windows(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    windows[r] = WindowSpec{.slot = batch[r].slot,
                            .tokens = {batch[r].token},
                            .committed = 1};
  }
  // Single-row windows: command row r IS lane r, so the round's logits are
  // already the [B x vocab] contract (row-aligned, bitwise identical to
  // stepping each slot alone).
  return run_window_round(windows).logits;
}

std::vector<LaneCommit> DistributedDecoder::step_speculative(
    std::span<const SlotWindow> lanes) {
  if (lanes.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty batch");
  }
  std::vector<WindowSpec> windows(lanes.size());
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    const SlotWindow& lane = lanes[w];
    if (!slot_active(lane.slot)) {
      throw std::logic_error("DistributedDecoder: prime() before step()");
    }
    const std::size_t position = slots_[lane.slot].position;
    if (position + 1 > model_.spec().max_positions) {
      throw std::length_error("DistributedDecoder: context window exhausted");
    }
    // Trim the drafts to the remaining context window: a draft that could
    // never be committed is not worth verifying.
    const std::size_t room = model_.spec().max_positions - position - 1;
    const std::size_t drafted = std::min(lane.drafts.size(), room);
    WindowSpec& win = windows[w];
    win.slot = lane.slot;
    win.committed = 1;
    win.tokens.reserve(1 + drafted);
    win.tokens.push_back(lane.token);
    win.tokens.insert(win.tokens.end(), lane.drafts.begin(),
                      lane.drafts.begin() + static_cast<std::ptrdiff_t>(
                                                drafted));
  }
  WindowRound round = run_window_round(windows);
  std::vector<LaneCommit> commits(lanes.size());
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    LaneCommit& commit = commits[w];
    commit.accepted = round.accepted[w];
    commit.drafted = windows[w].tokens.size() - 1;
    // Greedy output: the model's own choice after every committed input —
    // the accepted drafts re-derived (bitwise, from the real logits) plus
    // the "bonus" token after the last accepted position.
    commit.tokens.reserve(commit.accepted + 1);
    for (std::size_t j = 0; j <= commit.accepted; ++j) {
      commit.tokens.push_back(static_cast<TokenId>(
          argmax_row(round.logits, round.row_begin[w] + j)));
    }
    const std::size_t last = round.row_begin[w] + commit.accepted;
    commit.logits = round.logits.slice_rows(last, last + 1);
  }
  return commits;
}

void DistributedDecoder::release_slot(SlotId slot) {
  if (!slot_active(slot)) {
    throw std::out_of_range("DistributedDecoder: inactive slot");
  }
  const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
  run([&] {
    Tensor cmd(1, kCmdCols);
    cmd(0, 0) = kOpRelease;
    cmd(0, 2) = precision_ == Precision::kInt8 ? 1.0F : 0.0F;
    cmd(0, 3) = static_cast<float>(recv_timeout_seconds_);
    cmd(0, 4) = static_cast<float>(slot);
    const std::size_t k = scheme_.devices();
    broadcast(mesh_->transport(), everyone_, k, k, cmd, kTagCmd);
  });
  slots_[slot] = SlotMeta{};
}

Tensor DistributedDecoder::extend(std::span<const TokenId> tokens) {
  if (tokens.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty extension");
  }
  if (slots_.empty() || !slots_[0].active) {
    throw std::logic_error("DistributedDecoder: prime() before step()");
  }
  // One all-committed window: every token is appended in a single wire
  // round (the caches grow exactly as if each token had been step()ed) and
  // the last row's logits come back — N committed tokens, one round-trip.
  const std::vector<WindowSpec> windows{
      WindowSpec{.slot = 0,
                 .tokens = {tokens.begin(), tokens.end()},
                 .committed = tokens.size()}};
  WindowRound round = run_window_round(windows);
  return round.logits.slice_rows(round.logits.rows() - 1,
                                 round.logits.rows());
}

}  // namespace voltage
