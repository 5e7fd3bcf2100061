#include "runtime/mesh.h"

#include <stdexcept>
#include <string>

#include "core/thread_pool.h"

namespace voltage {

namespace {

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

bool is_transport_closed(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const TransportClosedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

// Poisons the transport so every peer blocked on it unwinds, naming the
// failing party. Never throws: it runs while a failure is being contained.
void poison(Transport& transport, const std::string& who,
            const std::exception_ptr& error) noexcept {
  try {
    transport.close(who + " failed: " + describe(error));
  } catch (...) {
    // close() is idempotent and should not throw; nothing more to contain.
  }
}

// Rethrows the root cause: the first device error that is not a secondary
// TransportClosedError, else the terminal's error, else any device error.
[[noreturn]] void rethrow_root_cause(
    const std::vector<std::exception_ptr>& device_errors,
    const std::exception_ptr& terminal_error) {
  for (const std::exception_ptr& e : device_errors) {
    if (e != nullptr && !is_transport_closed(e)) std::rethrow_exception(e);
  }
  if (terminal_error != nullptr) std::rethrow_exception(terminal_error);
  for (const std::exception_ptr& e : device_errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  throw std::logic_error("Mesh: failed run without an error");
}

}  // namespace

Mesh::Mesh(std::unique_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  if (transport_ == nullptr || transport_->devices() == 0) {
    throw std::invalid_argument("Mesh: needs a transport with a terminal");
  }
  const std::size_t k = transport_->devices() - 1;
  errors_.resize(k);
  workers_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Mesh::~Mesh() {
  stopping_ = true;
  generation_.fetch_add(1);
  generation_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Mesh::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  for (std::size_t i = 0; i < devices(); ++i) {
    tracer_->set_track_name(static_cast<obs::TrackId>(i),
                            "device " + std::to_string(i));
  }
  tracer_->set_track_name(static_cast<obs::TrackId>(terminal_id()),
                          "terminal");
}

void Mesh::run(const DevicePart& device_part,
               const TerminalPart& terminal_part) {
  if (dead_) {
    throw std::logic_error("Mesh: an earlier run failed; build a new mesh");
  }
  part_ = &device_part;
  run_trace_ = obs::thread_trace_id();
  pending_ = static_cast<std::uint32_t>(devices());
  // Publishes the part and its context to every worker.
  generation_.fetch_add(1);
  generation_.notify_all();

  std::exception_ptr terminal_error;
  {
    const obs::ThreadTracerScope tracer_scope(tracer_);
    const obs::ThreadTrackScope track_scope(
        static_cast<obs::TrackId>(terminal_id()));
    try {
      terminal_part();
    } catch (...) {
      // Poison before waiting: the devices may be blocked on a message the
      // terminal will now never send.
      terminal_error = std::current_exception();
      poison(*transport_, "terminal", terminal_error);
    }
  }

  // Reading pending_ == 0 orders every device part, and its error slot,
  // before what follows.
  for (std::uint32_t left = pending_; left != 0; left = pending_) {
    pending_.wait(left);
  }
  bool failed = terminal_error != nullptr;
  for (const std::exception_ptr& e : errors_) failed = failed || e != nullptr;
  if (!failed) return;
  dead_ = true;
  rethrow_root_cause(errors_, terminal_error);
}

void Mesh::worker_main(std::size_t device) {
  std::uint32_t served = 0;  // generation of the last run this worker saw
  for (;;) {
    generation_.wait(served);
    served = generation_;
    if (stopping_) return;
    // The run's part and context, published by run() before it bumped the
    // generation and left alone until every part has returned.
    {
      const obs::ThreadTracerScope tracer_scope(tracer_);
      const obs::ThreadTrackScope track_scope(
          static_cast<obs::TrackId>(device));
      const obs::TraceIdScope trace_scope(run_trace_);
      const IntraOpScope intra_scope(intra_op_threads_);
      const obs::Micros busy_start = telemetry_ != nullptr ? obs::now_us() : 0;
      try {
        (*part_)(device);
      } catch (...) {
        errors_[device] = std::current_exception();
        poison(*transport_, "device " + std::to_string(device),
               errors_[device]);
      }
      if (telemetry_ != nullptr) {
        telemetry_->add_device_busy(device, obs::now_us() - busy_start);
      }
    }
    if (pending_.fetch_sub(1) == 1) pending_.notify_one();
  }
}

}  // namespace voltage
