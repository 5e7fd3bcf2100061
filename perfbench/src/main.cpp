// Voltage serving benchmark: the program run.py builds and runs.
//
//   perfbench --workload <classify|chat|offline> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 sets the deployment up several times before and after serving
// (set-up time is the median), serves the workload for --seconds, checks
// every sampled output off the clock and prints the end-to-end metrics. --trace 1 serves the
// workload twice on fresh deployments, untraced and then with the
// benchmark's request spans recorded (their difference is the tracing
// overhead), then replays each layer's public calls at the workload's
// shapes and prints the per-layer metrics; --trace-out writes the spans as
// a Chrome trace that tools/trace_report opens.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 success, 1 an output mismatch or failed request, 2 usage,
// 3 the load generator could not hold the schedule (run invalid, no
// result printed).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check.h"
#include "loadgen.h"
#include "replay.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace perfbench;

// Set-ups per --trace 0 run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 15;
// Validity limits of an open-loop run: the generator's p99 lateness, and
// the share of requests sent that must resolve inside the window (a
// growing backlog shows as a shortfall).
constexpr double kMaxLatenessP99Ms = 25.0;
constexpr double kMinResolvedShare = 0.9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      args.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed ||
      !(args.seconds > 0.0) || args.trace < 0) {
    return std::nullopt;
  }
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One served run, with its output check folded in.
struct Served {
  RunResult run;
  CheckResult check;
  std::size_t errors = 0;  // futures that resolved with an exception
  voltage::ServerStats server;
  double peak_rss_mb = 0.0;

  [[nodiscard]] std::size_t attempted() const { return run.outcomes.size(); }
  [[nodiscard]] std::size_t failed() const {
    return errors + check.mismatched.size();
  }
};

Served serve(const WorkloadSpec& spec, Deployment& d, const Args& args,
             voltage::obs::Tracer* tracer) {
  Served s;
  s.run = run_workload(spec, *d.server,
                       RunOptions{.seed = args.seed,
                                  .seconds = args.seconds,
                                  .tracer = tracer});
  s.peak_rss_mb = peak_rss_mb();
  s.server = d.server->stats();
  d.server.reset();  // the check runs with the server gone
  s.check = check_outputs(*d.model, s.run.score_samples,
                          s.run.generate_samples);
  for (const Outcome& o : s.run.outcomes) s.errors += o.ok ? 0 : 1;
  // A wrong output counts as a failed request.
  for (const std::size_t index : s.check.mismatched) {
    s.run.outcomes[index].ok = false;
  }
  return s;
}

// End-to-end figures of one served run, each over the whole run.
struct EndToEnd {
  double cpu_ms_per_token = 0.0;
  double ms_per_token_p50 = 0.0;
  double ms_per_token_p90 = 0.0;
  double output_tokens_per_s = 0.0;
  double slo_attainment = 0.0;
};

EndToEnd end_to_end(const WorkloadSpec& spec, const Served& s) {
  std::vector<double> ms_per_token;  // requests that succeeded
  std::size_t met = 0;               // succeeded within their limit
  std::size_t tokens = 0;
  double last_resolved_s = 0.0;
  for (const Outcome& o : s.run.outcomes) {
    if (!o.ok) continue;  // a failed request misses every limit
    const double ms = o.latency_s * 1e3;
    const double ms_tok = ms / static_cast<double>(o.output_tokens);
    ms_per_token.push_back(ms_tok);
    met += (o.generate ? ms_tok <= spec.token_slo_ms : ms <= spec.score_slo_ms)
               ? 1
               : 0;
    tokens += o.output_tokens;
    last_resolved_s = std::max(last_resolved_s, o.resolved_s);
  }
  EndToEnd e;
  e.cpu_ms_per_token =
      tokens > 0 ? s.run.server_cpu_s * 1e3 / static_cast<double>(tokens)
                 : 0.0;
  e.ms_per_token_p50 = percentile(ms_per_token, 0.5);
  e.ms_per_token_p90 = percentile(ms_per_token, 0.9);
  // Tokens completed over the time to the last completion.
  e.output_tokens_per_s =
      last_resolved_s > 0.0 ? static_cast<double>(tokens) / last_resolved_s
                            : 0.0;
  e.slo_attainment = s.attempted() > 0
                         ? static_cast<double>(met) /
                               static_cast<double>(s.attempted())
                         : 0.0;
  return e;
}

void print_line(const char* name, double value, const char* unit,
                const std::string& note = {}) {
  std::printf("  %-28s %14.4f %-8s %s\n", name, value, unit, note.c_str());
}

// Human-readable report of one served run, by the metric names of the
// benchmark's documentation; returns false if the run is invalid.
bool report_run(const WorkloadSpec& spec, const Served& s, const char* label) {
  std::vector<double> score_ms;
  std::vector<double> gen_ms_tok;
  for (const Outcome& o : s.run.outcomes) {
    if (!o.ok) continue;
    if (o.generate) {
      gen_ms_tok.push_back(o.latency_s * 1e3 /
                           static_cast<double>(o.output_tokens));
    } else {
      score_ms.push_back(o.latency_s * 1e3);
    }
  }
  const EndToEnd e = end_to_end(spec, s);
  const double lateness_p99_ms = percentile(s.run.lateness_s, 0.99) * 1e3;
  const double resolved_share =
      s.run.sent_in_window > 0
          ? static_cast<double>(s.run.resolved_in_window) /
                static_cast<double>(s.run.sent_in_window)
          : 0.0;
  std::printf("[%s] %s: %zu requests, %zu failed, %zu outputs checked\n",
              label, std::string(spec.name).c_str(), s.attempted(), s.failed(),
              s.check.checked);
  if (!score_ms.empty()) {
    const std::string n = "n=" + std::to_string(score_ms.size());
    print_line("classify_p50_ms", percentile(score_ms, 0.5), "ms", n);
    print_line("classify_p90_ms", percentile(score_ms, 0.9), "ms", n);
    print_line("classify_p99_ms", percentile(score_ms, 0.99), "ms", n);
  }
  if (!gen_ms_tok.empty()) {
    const std::string n = "n=" + std::to_string(gen_ms_tok.size());
    print_line("generate_ms_per_token_p50", percentile(gen_ms_tok, 0.5),
               "ms/token", n);
    print_line("generate_ms_per_token_p90", percentile(gen_ms_tok, 0.9),
               "ms/token", n);
    print_line("generate_ms_per_token_p99", percentile(gen_ms_tok, 0.99),
               "ms/token", n);
  }
  print_line("cpu_ms_per_token", e.cpu_ms_per_token, "ms/token");
  print_line("ms_per_token_p50", e.ms_per_token_p50, "ms/token");
  print_line("ms_per_token_p90", e.ms_per_token_p90, "ms/token");
  print_line("output_tokens_per_s", e.output_tokens_per_s, "tokens/s");
  print_line("slo_attainment", e.slo_attainment, "share");
  print_line("failed_fraction",
             s.attempted() > 0 ? static_cast<double>(s.failed()) /
                                     static_cast<double>(s.attempted())
                               : 0.0,
             "share");
  print_line("peak_rss_mb", s.peak_rss_mb, "MB");
  print_line("loadgen.lateness_p99_ms", lateness_p99_ms, "ms");
  print_line("loadgen.offered_per_s",
             static_cast<double>(s.run.sent_in_window) / s.run.window_s,
             "req/s");
  print_line("loadgen.completed_per_s",
             static_cast<double>(s.run.resolved_in_window) / s.run.window_s,
             "req/s");
  // Only an open loop can fall behind its schedule; a closed loop's last
  // `outstanding` requests always resolve after the window.
  bool valid = true;
  if (spec.open_loop && lateness_p99_ms > kMaxLatenessP99Ms) {
    std::fprintf(stderr,
                 "run invalid: generator lateness p99 %.3f ms exceeds %.1f "
                 "ms\n",
                 lateness_p99_ms, kMaxLatenessP99Ms);
    valid = false;
  }
  if (spec.open_loop && resolved_share < kMinResolvedShare) {
    std::fprintf(stderr,
                 "run invalid: only %.3f of the requests sent resolved "
                 "inside the window (backlog grew; need %.2f)\n",
                 resolved_share, kMinResolvedShare);
    valid = false;
  }
  for (const std::size_t index : s.check.mismatched) {
    std::fprintf(stderr, "output mismatch: request %zu\n", index);
  }
  return valid;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run_untraced(const WorkloadSpec& spec, const Args& args) {
  // Half the set-ups before the served run and half after it, so that one
  // spell of host contention is less likely to cover them all.
  std::vector<double> setups;
  for (std::size_t i = 0; i + 1 < kSetupRepeats / 2; ++i) {
    setups.push_back(deploy(spec).setup_s);
  }
  Deployment d = deploy(spec);
  setups.push_back(d.setup_s);
  const Served s = serve(spec, d, args, nullptr);
  while (setups.size() < kSetupRepeats) {
    setups.push_back(deploy(spec).setup_s);
  }
  if (!report_run(spec, s, "untraced")) return 3;
  const EndToEnd e = end_to_end(spec, s);
  const double setup_s = median(setups);
  print_line("setup_s", setup_s, "s",
             "median of " + std::to_string(setups.size()));
  print_result(s.failed() == 0, s.attempted(), s.failed(),
               {{"setup_s", setup_s, "s"},
                {"cpu_ms_per_token", e.cpu_ms_per_token, "ms/token"},
                {"peak_rss_mb", s.peak_rss_mb, "MB"}});
  return s.failed() == 0 ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  Served plain;
  {
    Deployment d = deploy(spec);
    plain = serve(spec, d, args, nullptr);
  }
  if (!report_run(spec, plain, "untraced")) return 3;
  voltage::obs::Tracer tracer;
  Deployment d = deploy(spec);
  const Served traced = serve(spec, d, args, &tracer);
  if (!report_run(spec, traced, "traced")) return 3;

  const EndToEnd a = end_to_end(spec, plain);
  const EndToEnd b = end_to_end(spec, traced);
  std::printf("tracing overhead (traced - untraced):\n");
  print_line("cpu_ms_per_token", b.cpu_ms_per_token - a.cpu_ms_per_token,
             "ms/token");
  print_line("ms_per_token_p50", b.ms_per_token_p50 - a.ms_per_token_p50,
             "ms/token");
  print_line("ms_per_token_p90", b.ms_per_token_p90 - a.ms_per_token_p90,
             "ms/token");
  print_line("output_tokens_per_s",
             b.output_tokens_per_s - a.output_tokens_per_s, "tokens/s");
  print_line("slo_attainment", b.slo_attainment - a.slo_attainment, "share");

  std::vector<Metric> metrics;
  const auto& st = traced.server;
  metrics.push_back({"serve.queue_wait_ms_p50", st.queue_wait.p50 * 1e3, "ms"});
  metrics.push_back({"serve.service_ms_p50", st.service.p50 * 1e3, "ms"});
  metrics.push_back(
      {"serve.batch_occupancy_mean", traced.run.occupancy_mean, "requests"});
  metrics.push_back(
      {"serve.queue_depth_mean", traced.run.queue_depth_mean, "requests"});
  for (Metric& m : replay_layers(spec, *d.model, args.seed, &tracer)) {
    metrics.push_back(std::move(m));
  }
  metrics.push_back({"loadgen.lateness_p99_ms",
                     percentile(traced.run.lateness_s, 0.99) * 1e3, "ms"});
  metrics.push_back({"trace.overhead_cpu_ms_per_token",
                     b.cpu_ms_per_token - a.cpu_ms_per_token, "ms/token"});
  metrics.push_back({"trace.overhead_ms_per_token_p50",
                     b.ms_per_token_p50 - a.ms_per_token_p50, "ms/token"});
  metrics.push_back({"trace.overhead_ms_per_token_p90",
                     b.ms_per_token_p90 - a.ms_per_token_p90, "ms/token"});
  std::printf("per-layer (replayed at N=%zu, T=%zu):\n", spec.replay_prefill_n,
              spec.replay_context);
  for (const Metric& m : metrics) {
    print_line(m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.trace_out.empty()) {
    tracer.write_chrome_trace_file(args.trace_out);
    std::printf("trace: %s (%zu spans)\n", args.trace_out.c_str(),
                tracer.size());
  }
  const std::size_t failed = plain.failed() + traced.failed();
  print_result(failed == 0, plain.attempted() + traced.attempted(), failed,
               metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file.json>]\n",
                 argv[0]);
    return 2;
  }
  const std::optional<WorkloadSpec> spec = workload_by_name(args->workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'; choose one of:",
                 args->workload.c_str());
    for (const std::string_view name : workload_names()) {
      std::fprintf(stderr, " %s", std::string(name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return args->trace == 1 ? run_traced(*spec, *args)
                            : run_untraced(*spec, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
