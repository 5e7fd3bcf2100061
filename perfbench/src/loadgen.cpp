#include "loadgen.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <list>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/clock.h"
#include "partition/scheme.h"
#include "transformer/tokenizer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Longest a collector blocks on one future before sweeping the others, so
// an out-of-order completion is seen at most this late.
constexpr auto kPollSlice = std::chrono::microseconds(500);

// Outputs kept for the output check: every 8th scoring request's logits and
// every 4th generation. The client must stay small next to the server, so
// that peak RSS measures the server (a logits row is 4 KiB), and the check
// must stay short (a reference generation replays the whole sequence on one
// core).
constexpr std::size_t kScoreSampleStride = 8;
constexpr std::size_t kGenerateSampleStride = 4;

// Chrome-trace track of the benchmark client's spans.
constexpr voltage::obs::TrackId kClientTrack = 9100;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time used so far by `clock`: CLOCK_PROCESS_CPUTIME_ID or
// CLOCK_THREAD_CPUTIME_ID.
[[nodiscard]] double cpu_seconds(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

struct InFlight {
  std::size_t index = 0;
  std::size_t new_tokens = 0;  // 0 = scoring request
  bool sampled = false;
  std::vector<TokenId> prompt;  // kept only when sampled
  Clock::time_point due;
  voltage::obs::Micros submit_us = 0;
  std::future<voltage::Tensor> logits;
  std::future<std::vector<TokenId>> tokens;

  [[nodiscard]] bool generate() const noexcept { return new_tokens > 0; }
  [[nodiscard]] bool ready(Clock::duration wait) const {
    const std::future_status status =
        generate() ? tokens.wait_for(wait) : logits.wait_for(wait);
    return status == std::future_status::ready;
  }
};

// Submits `request` (due at `due`) and returns its in-flight record.
InFlight submit(voltage::InferenceServer& server, Request request,
                Clock::time_point due) {
  InFlight f;
  f.index = request.index;
  f.new_tokens = request.new_tokens;
  f.sampled = request.index % (request.generate() ? kGenerateSampleStride
                                                  : kScoreSampleStride) ==
              0;
  f.due = due;
  f.submit_us = voltage::obs::now_us();
  if (f.sampled) f.prompt = request.prompt;
  if (request.generate()) {
    f.tokens = server.submit_generate(std::move(request.prompt),
                                      request.new_tokens);
  } else {
    f.logits = server.submit(std::move(request.prompt));
  }
  return f;
}

// Resolves in-flight requests into the run's outcomes and samples.
class Collector {
 public:
  Collector(RunResult& result, Clock::time_point start,
            voltage::obs::Tracer* tracer)
      : result_(result), start_(start), tracer_(tracer) {}

  void add(InFlight f) { pending_.push_back(std::move(f)); }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] Clock::time_point last_resolved() const noexcept {
    return last_resolved_;
  }

  // Resolves every ready request. If none was ready, blocks up to
  // kPollSlice on the one most likely to finish next: the oldest scoring
  // request (they complete in FIFO order), else the oldest generation.
  std::size_t poll() {
    std::size_t resolved = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->ready(Clock::duration::zero())) {
        finish(*it);
        it = pending_.erase(it);
        ++resolved;
      } else {
        ++it;
      }
    }
    if (resolved > 0 || pending_.empty()) return resolved;
    auto target = std::find_if(pending_.begin(), pending_.end(),
                               [](const InFlight& f) { return !f.generate(); });
    if (target == pending_.end()) target = pending_.begin();
    if (target->ready(kPollSlice)) {
      finish(*target);
      pending_.erase(target);
      return 1;
    }
    return 0;
  }

 private:
  void finish(InFlight& f) {
    const Clock::time_point now = Clock::now();
    last_resolved_ = now;
    Outcome o;
    o.generate = f.generate();
    o.latency_s = seconds_between(f.due, now);
    o.resolved_s = seconds_between(start_, now);
    try {
      if (f.generate()) {
        std::vector<TokenId> tokens = f.tokens.get();
        o.output_tokens = tokens.size();
        if (f.sampled) {
          result_.generate_samples.push_back(
              GenerateSample{.index = f.index,
                             .prompt = std::move(f.prompt),
                             .tokens = std::move(tokens),
                             .new_tokens = f.new_tokens});
        }
      } else {
        voltage::Tensor logits = f.logits.get();
        o.output_tokens = 1;
        if (f.sampled) {
          result_.score_samples.push_back(ScoreSample{
              .index = f.index,
              .prompt = std::move(f.prompt),
              .logits = std::move(logits)});
        }
      }
      o.ok = true;
    } catch (const std::exception&) {
      o.ok = false;
    }
    if (tracer_ != nullptr) {
      voltage::obs::TraceEvent event;
      event.name = "bench.request";
      event.category = "serve";
      event.track = kClientTrack;
      event.start_us = f.submit_us;
      event.duration_us = voltage::obs::now_us() - f.submit_us;
      event.request = static_cast<std::int64_t>(f.index);
      event.tag = f.generate() ? "generate" : "score";
      tracer_->record(std::move(event));
    }
    if (o.ok && o.resolved_s <= result_.window_s) {
      result_.resolved_in_window += 1;
    }
    if (result_.outcomes.size() <= f.index) {
      result_.outcomes.resize(f.index + 1);
    }
    result_.outcomes[f.index] = o;
  }

  RunResult& result_;
  Clock::time_point start_;
  voltage::obs::Tracer* tracer_;
  std::list<InFlight> pending_;
  Clock::time_point last_resolved_ = start_;
};

// Running means of the server gauges, sampled at each submission (Poisson
// arrivals see time averages).
struct GaugeSampler {
  double occupancy = 0.0;
  double depth = 0.0;
  std::size_t samples = 0;

  void sample(const voltage::InferenceServer& server) {
    occupancy += static_cast<double>(server.batch_occupancy());
    depth += static_cast<double>(server.queue_depth());
    samples += 1;
  }
  void store(RunResult& result) const {
    const double n = samples > 0 ? static_cast<double>(samples) : 1.0;
    result.occupancy_mean = occupancy / n;
    result.queue_depth_mean = depth / n;
  }
};

RunResult run_open_loop(const WorkloadSpec& spec,
                        voltage::InferenceServer& server,
                        const RunOptions& options) {
  RequestStream stream(spec, options.seed, options.seconds);
  RunResult result;
  result.window_s = options.seconds;
  result.sent_in_window = stream.planned();
  result.lateness_s.reserve(stream.planned());
  // A short lead so the first arrival is not already late.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);

  std::mutex mutex;
  std::condition_variable handed_off;
  std::deque<InFlight> handoff;
  bool done = false;
  GaugeSampler gauges;
  double submitter_cpu_s = 0.0;  // written by the submitter before it ends
  const double process_cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double collector_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);

  std::jthread submitter([&] {
    const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    while (std::optional<Request> request = stream.next()) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(request->due_s));
      std::this_thread::sleep_until(due);
      result.lateness_s.push_back(seconds_between(due, Clock::now()));
      gauges.sample(server);
      InFlight f = submit(server, std::move(*request), due);
      {
        const std::lock_guard lock(mutex);
        handoff.push_back(std::move(f));
      }
      handed_off.notify_one();
    }
    submitter_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    {
      const std::lock_guard lock(mutex);
      done = true;
    }
    handed_off.notify_one();
  });

  Collector collector(result, start, options.tracer);
  while (true) {
    {
      std::unique_lock lock(mutex);
      if (collector.pending() == 0 && handoff.empty()) {
        if (done) break;
        handed_off.wait(lock, [&] { return done || !handoff.empty(); });
      }
      while (!handoff.empty()) {
        collector.add(std::move(handoff.front()));
        handoff.pop_front();
      }
    }
    collector.poll();
  }
  const double collector_cpu_s =
      cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - collector_cpu0;
  submitter.join();
  result.server_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) -
                        process_cpu0 - collector_cpu_s - submitter_cpu_s;
  gauges.store(result);
  return result;
}

RunResult run_closed_loop(const WorkloadSpec& spec,
                          voltage::InferenceServer& server,
                          const RunOptions& options) {
  RequestStream stream(spec, options.seed, options.seconds);
  RunResult result;
  result.window_s = options.seconds;
  GaugeSampler gauges;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  Collector collector(result, start, options.tracer);
  const double process_cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double client_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  while (Clock::now() < end) {
    while (collector.pending() < spec.outstanding) {
      std::optional<Request> request = stream.next();
      const Clock::time_point now = Clock::now();
      // Lateness of a refill: from the completion that freed the slot.
      result.lateness_s.push_back(seconds_between(
          std::max(start, collector.last_resolved()), now));
      gauges.sample(server);
      collector.add(submit(server, std::move(*request), now));
      result.sent_in_window += 1;
    }
    collector.poll();
  }
  while (collector.pending() > 0) collector.poll();
  const double client_cpu_s =
      cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - client_cpu0;
  result.server_cpu_s =
      cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0 - client_cpu_s;
  gauges.store(result);
  return result;
}

}  // namespace

Deployment deploy(const WorkloadSpec& spec) {
  const Clock::time_point t0 = Clock::now();
  Deployment d;
  d.model = std::make_unique<voltage::TransformerModel>(bench_model_spec(),
                                                        kModelSeed);
  voltage::InferenceServer::Options options;
  options.scheme = voltage::PartitionScheme::even(kDevices);
  options.policy = voltage::OrderPolicy::kAdaptive;
  options.transport = spec.transport;
  options.precision = voltage::Precision::kFp32;
  d.server = std::make_unique<voltage::InferenceServer>(*d.model, options);
  const std::vector<TokenId> warm =
      voltage::random_tokens(16, d.model->spec().vocab_size, 7);
  (void)d.server->submit(warm).get();
  (void)d.server->submit_generate(warm, 2).get();
  d.setup_s = seconds_between(t0, Clock::now());
  return d;
}

RunResult run_workload(const WorkloadSpec& spec,
                       voltage::InferenceServer& server,
                       const RunOptions& options) {
  if (options.tracer != nullptr) {
    options.tracer->set_track_name(kClientTrack, "bench client");
  }
  return spec.open_loop ? run_open_loop(spec, server, options)
                        : run_closed_loop(spec, server, options);
}

}  // namespace perfbench
