// One persistent device mesh: the paper's deployment (Algorithm 2), where
// one terminal and the same K edge devices serve every request.
//
// A Mesh owns the transport and K worker threads, spawned once at
// construction. Every runtime lowers a request onto run(device_part,
// terminal_part): each worker i runs device_part(i), the calling thread runs
// terminal_part as device K, and run returns only after every part has
// returned — so a run drains its own messages, and consecutive runs (even
// of different runtimes sharing one mesh) never see each other's traffic.
// Handing the parts to the workers is an in-process handoff through two
// atomics; only what the parts themselves send goes on the wire.
//
// Containment: the first part that throws poisons the transport
// (Transport::close), so every peer blocked in a collective unwinds with
// TransportClosedError, and run rethrows the *root cause* — the first
// non-closed device error, else the terminal's error, else any device
// error — never the secondary closed errors it fanned out. A poisoned
// transport never recovers, so the mesh is dead afterwards: every later run
// throws std::logic_error. Build a new mesh to recover.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace voltage {

class Mesh {
 public:
  // Runs on worker `device` (0..K-1).
  using DevicePart = std::function<void(std::size_t device)>;
  // Runs on the calling thread, as the terminal (device K).
  using TerminalPart = std::function<void()>;

  // K = transport->devices() - 1 workers plus the terminal.
  explicit Mesh(std::unique_ptr<Transport> transport);
  // Stops the workers in-process and joins them before the transport is
  // destroyed.
  ~Mesh();

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  // Runs one request on the mesh (see the header comment). Device parts run
  // under the mesh's tracer, their own track, the caller's trace id and the
  // mesh's intra-op budget, and report their busy time to the telemetry
  // hub; the terminal part runs under the tracer and the terminal track.
  // Not reentrant: one run at a time, from one thread at a time.
  void run(const DevicePart& device_part, const TerminalPart& terminal_part);

  [[nodiscard]] std::size_t devices() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] DeviceId terminal_id() const noexcept { return devices(); }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] const Transport& transport() const noexcept {
    return *transport_;
  }

  // The context every run applies. Set between runs, from the thread that
  // calls run(); a runtime sharing the mesh shares these settings.
  //
  // Span tracer (nullptr = off). Attaching names the tracks "device i" and
  // "terminal".
  void set_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }
  // Live telemetry hub (nullptr = off): receives each device part's busy
  // time, so idle time between runs does not count.
  void set_telemetry(obs::TelemetryHub* telemetry) noexcept {
    telemetry_ = telemetry;
  }
  // Intra-op thread budget of each device part's kernels (default 1: the
  // devices already are the parallelism). Bitwise-neutral; 0 is clamped
  // to 1.
  void set_intra_op_threads(std::size_t n) noexcept {
    intra_op_threads_ = n == 0 ? 1 : n;
  }
  [[nodiscard]] std::size_t intra_op_threads() const noexcept {
    return intra_op_threads_;
  }

 private:
  void worker_main(std::size_t device);

  std::unique_ptr<Transport> transport_;
  obs::Tracer* tracer_ = nullptr;           // non-owning
  obs::TelemetryHub* telemetry_ = nullptr;  // non-owning
  std::size_t intra_op_threads_ = 1;
  bool dead_ = false;  // a run failed; the transport is poisoned

  // The handoff. run() writes the part and its context, then bumps
  // generation_ to start the workers; each worker decrements pending_ when
  // its part returns, and run() waits for zero. Both are atomic waits, so
  // no lock is taken on the way: a shared mutex and condition variable
  // here made every K=4 decode step about a quarter slower.
  const DevicePart* part_ = nullptr;
  std::uint64_t run_trace_ = 0;  // the caller's trace id
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;  // one per device
  std::atomic<std::uint32_t> generation_{0};  // bumped once per run
  std::atomic<std::uint32_t> pending_{0};     // device parts still running

  std::vector<std::thread> workers_;
};

}  // namespace voltage
