// Tests of the persistent device mesh (runtime/mesh.h): the same K worker
// threads serve every run — of one runtime, and of several runtimes sharing
// the mesh — each run returns only after every part has, the first failure
// is contained and reported as its root cause, and a failed mesh stays dead
// without hanging its callers or its destructor.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/transport.h"
#include "partition/partitioned_layer.h"
#include "partition/schedule.h"
#include "runtime/distributed_decoder.h"
#include "runtime/mesh.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sends made by the calling thread so far, through any SenderLog. A thread
// that lives across runs keeps counting; a thread spawned per run would
// start again from zero.
thread_local std::size_t t_sends = 0;

// Forwards to a real transport and records, per sending device, which
// threads sent and how many sends each had made by then.
class SenderLog final : public Transport {
 public:
  explicit SenderLog(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)),
        threads_(inner_->devices()),
        sends_(inner_->devices(), 0),
        high_water_(inner_->devices(), 0) {}

  [[nodiscard]] std::size_t devices() const noexcept override {
    return inner_->devices();
  }
  void send(Message message) override {
    {
      const std::lock_guard lock(mutex_);
      threads_[message.source].insert(std::this_thread::get_id());
      sends_[message.source] += 1;
      high_water_[message.source] =
          std::max(high_water_[message.source], ++t_sends);
    }
    inner_->send(std::move(message));
  }
  [[nodiscard]] Message recv(DeviceId receiver, DeviceId source,
                             MessageTag tag,
                             const RecvOptions& options) override {
    return inner_->recv(receiver, source, tag, options);
  }
  [[nodiscard]] Message recv_any(DeviceId receiver, MessageTag tag,
                                 const RecvOptions& options) override {
    return inner_->recv_any(receiver, tag, options);
  }
  void close(std::string reason) override { inner_->close(std::move(reason)); }
  [[nodiscard]] bool closed() const noexcept override {
    return inner_->closed();
  }
  [[nodiscard]] TrafficStats stats(DeviceId device) const override {
    return inner_->stats(device);
  }
  [[nodiscard]] TrafficStats total_stats() const override {
    return inner_->total_stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

  [[nodiscard]] std::set<std::thread::id> threads(DeviceId device) {
    const std::lock_guard lock(mutex_);
    return threads_[device];
  }
  [[nodiscard]] std::size_t sends(DeviceId device) {
    const std::lock_guard lock(mutex_);
    return sends_[device];
  }
  // The most sends any one thread had made when it sent for `device`.
  [[nodiscard]] std::size_t high_water(DeviceId device) {
    const std::lock_guard lock(mutex_);
    return high_water_[device];
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::mutex mutex_;
  std::vector<std::set<std::thread::id>> threads_;
  std::vector<std::size_t> sends_;
  std::vector<std::size_t> high_water_;
};

TEST(Mesh, RunReturnsAfterEveryPart) {
  constexpr std::size_t kDevices = 3;
  Mesh mesh(make_transport(TransportKind::kInMemory, kDevices + 1));
  ASSERT_EQ(mesh.devices(), kDevices);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(kDevices);
  std::thread::id terminal_ran_on;
  for (int round = 0; round < 3; ++round) {
    std::vector<int> done(kDevices, 0);
    mesh.run(
        [&](std::size_t i) {
          // Finish after the terminal part, so only run()'s wait can make
          // `done` visible when it returns.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          done[i] = 1;
          ran_on[i] = std::this_thread::get_id();
        },
        [&] { terminal_ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(done, std::vector<int>(kDevices, 1)) << "round " << round;
  }
  EXPECT_EQ(terminal_ran_on, caller);
  const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
  EXPECT_EQ(distinct.size(), kDevices);
  EXPECT_EQ(distinct.count(caller), 0U);
}

TEST(Mesh, WorkersPersistAcrossRuntimeCallsAndDecoderSteps) {
  constexpr std::size_t kDevices = 3;
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto log_owner = std::make_unique<SenderLog>(
      make_transport(TransportKind::kInMemory, kDevices + 1));
  SenderLog* const log = log_owner.get();
  auto mesh = std::make_shared<Mesh>(std::move(log_owner));
  VoltageRuntime runtime(
      model,
      LayerSchedule::uniform(PartitionScheme::even(kDevices),
                             model.spec().num_layers),
      OrderPolicy::kAdaptive, mesh);
  DistributedDecoder decoder(model, PartitionScheme::even(kDevices),
                             OrderPolicy::kAdaptive, mesh);

  const auto tokens = random_tokens(18, model.spec().vocab_size, 41);
  const Tensor expected = model.infer(tokens);
  for (int call = 0; call < 3; ++call) {
    EXPECT_TRUE(allclose(runtime.infer(tokens), expected, 2e-3F));
  }
  std::vector<std::set<std::thread::id>> after_infer(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    after_infer[i] = log->threads(i);
  }
  const Tensor logits = decoder.prime(tokens);
  (void)decoder.step(static_cast<TokenId>(argmax_row(logits, 0)));

  std::set<std::thread::id> all;
  for (std::size_t i = 0; i < kDevices; ++i) {
    // One thread served device i through every infer, the prefill and the
    // step — the one that served it first.
    const std::set<std::thread::id> ids = log->threads(i);
    EXPECT_EQ(ids.size(), 1U) << "device " << i;
    EXPECT_EQ(ids, after_infer[i]) << "device " << i;
    // And it is one long-lived thread, not a new thread that happened to
    // reuse an id: its own send count never restarted.
    EXPECT_EQ(log->high_water(i), log->sends(i)) << "device " << i;
    all.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(all.size(), kDevices);
  EXPECT_EQ(all.count(std::this_thread::get_id()), 0U);
}

TEST(Mesh, ReportsTheRootCauseNotTheSecondaryCloses) {
  Mesh mesh(make_transport(TransportKind::kInMemory, 4));
  try {
    mesh.run(
        [&](std::size_t i) {
          if (i == 1) throw std::runtime_error("device one broke");
          // Everyone else blocks until the failure poisons the transport.
          (void)mesh.transport().recv(i, 3, /*tag=*/9);
        },
        [&] { (void)mesh.transport().recv(3, 0, /*tag=*/9); });
    FAIL() << "the device failure must surface";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "device one broke");
  }
  EXPECT_TRUE(mesh.transport().closed());
  EXPECT_THROW(mesh.run([](std::size_t) {}, [] {}), std::logic_error);
}

TEST(Mesh, DeadMeshFailsFastAndTearsDown) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(12, model.spec().vocab_size, 5);
  const auto start = Clock::now();
  {
    VoltageRuntime runtime(model, PartitionScheme::even(3));
    runtime.set_partition_executor([&model](std::size_t layer, const Tensor& x,
                                            Range p, OrderPolicy policy) {
      if (layer == 1 && p.begin != 0) {
        throw std::runtime_error("injected device fault");
      }
      return partitioned_layer_forward(model.layers()[layer], x, p, policy);
    });
    EXPECT_THROW((void)runtime.infer(tokens), std::runtime_error);
    // Every later call says the mesh is dead instead of touching it.
    EXPECT_THROW((void)runtime.infer(tokens), std::logic_error);
    EXPECT_THROW((void)runtime.infer(tokens), std::logic_error);
  }  // destroying the runtime stops and joins the dead mesh's workers
  EXPECT_LT(seconds_since(start), 30.0);
}

}  // namespace
}  // namespace voltage
