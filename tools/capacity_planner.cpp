// capacity_planner: how many K-device meshes does a fleet need to serve a
// target request rate within a p99 TTFT SLO?
//
// The mesh service model is calibrated from the committed benchmark
// numbers (BENCH_serving.json occupancy curve, BENCH_decode.json prefill
// rate — see sim/mesh_model.h). The planner first computes the smallest
// mesh count that keeps offered load rho < 1 (operating points with
// rho >= 1 are refused outright: an unstable queue has no steady-state
// percentiles to plan against), then binary-searches mesh count over
// deterministic fleet simulations until the p99 TTFT meets the SLO with no
// admission drops. The answer is a JSON report on stdout (or --out FILE).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/fleet.h"
#include "sim/mesh_model.h"
#include "sim/traffic.h"

namespace {

using voltage::LinkModel;
using voltage::Seconds;
namespace sim = voltage::sim;

struct PlannerArgs {
  double target_rps = -1.0;
  double slo_p99_ttft_ms = -1.0;
  double duration_s = 60.0;
  std::size_t max_batch = 16;
  std::size_t max_queue = 1024;
  std::size_t max_meshes = 4096;
  std::uint64_t seed = 1;
  sim::BalancerPolicy policy = sim::BalancerPolicy::kJoinShortestQueue;
  // Lognormal length mix; medians/sigmas chosen as a chatbot-like default.
  double prompt_median = 64.0, prompt_sigma = 0.8;
  std::size_t prompt_max = 512;
  double output_median = 64.0, output_sigma = 0.7;
  std::size_t output_max = 256;
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 86400.0;
  // Optional wire re-pricing away from the loopback calibration link.
  bool have_link = false;
  double link_mbps = 500.0;
  double link_latency_ms = 2.0;
  // Optional speculative decoding model: K drafts per verify window at a
  // per-draft acceptance probability (MeshModel::with_speculation).
  bool have_spec = false;
  std::size_t spec_drafts = 4;
  double spec_accept = 0.7;
  std::string out_path;
};

void print_usage(std::FILE* f, const char* argv0) {
  std::fprintf(
      f,
      "usage: %s --target-rps R --slo-p99-ttft-ms Y [options]\n"
      "\n"
      "Answers: how many K-device meshes serve R requests/s with\n"
      "p99 TTFT < Y ms? Emits a JSON report.\n"
      "\n"
      "options:\n"
      "  --duration-s S         simulated horizon (default 60)\n"
      "  --policy P             rr | jsq | deadline (default jsq)\n"
      "  --max-batch B          sequences per mesh step (default 16)\n"
      "  --max-queue Q          admission limit per mesh (default 1024)\n"
      "  --max-meshes N         search ceiling (default 4096)\n"
      "  --prompt-median T --prompt-sigma S --prompt-max M\n"
      "                         lognormal prompt lengths (64, 0.8, 512)\n"
      "  --output-median T --output-sigma S --output-max M\n"
      "                         lognormal output lengths (64, 0.7, 256)\n"
      "  --diurnal-amplitude A --diurnal-period-s P\n"
      "                         sinusoidal rate modulation (default off)\n"
      "  --link MBPS:LAT_MS     re-price per-step wire over this link\n"
      "  --spec K:ACC           model speculative decoding: K drafts per\n"
      "                         verify window at per-draft acceptance ACC\n"
      "  --seed N               traffic seed (default 1)\n"
      "  --out FILE             write the JSON report to FILE\n",
      argv0);
}

struct Candidate {
  std::size_t meshes = 0;
  bool refused_unstable = false;  // rho >= 1, never simulated
  sim::FleetReport report;
  bool feasible = false;
};

const char* policy_name(sim::BalancerPolicy p) {
  switch (p) {
    case sim::BalancerPolicy::kRoundRobin:
      return "round-robin";
    case sim::BalancerPolicy::kJoinShortestQueue:
      return "join-shortest-queue";
    case sim::BalancerPolicy::kDeadlineAware:
      return "deadline-aware";
  }
  return "?";
}

std::string json_report(const PlannerArgs& args, const sim::MeshModel& mesh,
                        double mean_demand_s, std::size_t min_meshes,
                        const std::vector<Candidate>& candidates,
                        const Candidate* answer) {
  std::string out;
  char buf[512];
  const auto emit = [&](const char* fmt, auto... v) {
    std::snprintf(buf, sizeof(buf), fmt, v...);
    out += buf;
  };
  emit("{\n");
  emit("  \"question\": {\"target_rps\": %g, \"slo_p99_ttft_ms\": %g, "
       "\"policy\": \"%s\", \"max_batch\": %zu, \"duration_s\": %g},\n",
       args.target_rps, args.slo_p99_ttft_ms, policy_name(args.policy),
       args.max_batch, args.duration_s);
  emit("  \"calibration\": {\"source\": \"BENCH_serving.json fp32 K=4 + "
       "BENCH_decode.json\", \"devices_per_mesh\": %zu, "
       "\"saturated_tokens_per_s\": %.1f, \"tokens_per_step\": %.3f, "
       "\"step_ms_b1\": %.3f, \"step_ms_bmax\": %.3f},\n",
       mesh.devices(), mesh.saturated_tokens_per_s(), mesh.tokens_per_step(),
       mesh.step_time(1.0) * 1e3,
       mesh.step_time(mesh.max_calibrated_batch()) * 1e3);
  emit("  \"mean_demand_mesh_seconds\": %.6f,\n", mean_demand_s);
  emit("  \"min_meshes_for_stability\": %zu,\n", min_meshes);
  out += "  \"candidates\": [\n";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (c.refused_unstable) {
      emit("    {\"meshes\": %zu, \"refused\": \"offered load >= 1\"}",
           c.meshes);
    } else {
      emit("    {\"meshes\": %zu, \"stable\": %s, \"offered_load\": %.3f, "
           "\"p99_ttft_ms\": %.2f, \"achieved_rps\": %.2f, "
           "\"rejected\": %zu, \"feasible\": %s}",
           c.meshes, c.report.stable ? "true" : "false",
           c.report.offered_load, c.report.ttft.p99 * 1e3,
           c.report.achieved_rps, c.report.rejected,
           c.feasible ? "true" : "false");
    }
    out += i + 1 < candidates.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  if (answer == nullptr) {
    emit("  \"answer\": null,\n  \"feasible\": false\n");
  } else {
    const sim::FleetReport& r = answer->report;
    emit("  \"answer\": {\"meshes\": %zu, \"devices_total\": %zu, "
         "\"p99_ttft_ms\": %.2f, \"p50_ttft_ms\": %.2f, "
         "\"p99_e2e_ms\": %.2f, \"achieved_rps\": %.2f, "
         "\"offered_load\": %.3f, \"mesh_utilization\": %.3f, "
         "\"slo_attainment\": %.4f},\n",
         answer->meshes, answer->meshes * mesh.devices(), r.ttft.p99 * 1e3,
         r.ttft.p50 * 1e3, r.e2e.p99 * 1e3, r.achieved_rps, r.offered_load,
         r.mean_mesh_utilization, r.slo_attainment);
    emit("  \"feasible\": true\n");
  }
  out += "}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  PlannerArgs args;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "capacity_planner: %s needs a value\n\n", argv[i]);
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--target-rps") == 0) {
      args.target_rps = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--slo-p99-ttft-ms") == 0) {
      args.slo_p99_ttft_ms = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--duration-s") == 0) {
      args.duration_s = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--max-batch") == 0) {
      args.max_batch = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--max-queue") == 0) {
      args.max_queue = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--max-meshes") == 0) {
      args.max_meshes = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--seed") == 0) {
      args.seed = static_cast<std::uint64_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--policy") == 0) {
      const char* p = need_value(i);
      if (std::strcmp(p, "rr") == 0) {
        args.policy = sim::BalancerPolicy::kRoundRobin;
      } else if (std::strcmp(p, "jsq") == 0) {
        args.policy = sim::BalancerPolicy::kJoinShortestQueue;
      } else if (std::strcmp(p, "deadline") == 0) {
        args.policy = sim::BalancerPolicy::kDeadlineAware;
      } else {
        std::fprintf(stderr, "capacity_planner: unknown policy '%s'\n", p);
        return 2;
      }
    } else if (std::strcmp(arg, "--prompt-median") == 0) {
      args.prompt_median = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--prompt-sigma") == 0) {
      args.prompt_sigma = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--prompt-max") == 0) {
      args.prompt_max = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--output-median") == 0) {
      args.output_median = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--output-sigma") == 0) {
      args.output_sigma = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--output-max") == 0) {
      args.output_max = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--diurnal-amplitude") == 0) {
      args.diurnal_amplitude = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--diurnal-period-s") == 0) {
      args.diurnal_period_s = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--link") == 0) {
      const char* v = need_value(i);
      args.have_link = true;
      args.link_mbps = std::atof(v);
      const char* colon = std::strchr(v, ':');
      if (colon != nullptr) args.link_latency_ms = std::atof(colon + 1);
    } else if (std::strcmp(arg, "--spec") == 0) {
      const char* v = need_value(i);
      args.have_spec = true;
      args.spec_drafts = static_cast<std::size_t>(std::atoll(v));
      const char* colon = std::strchr(v, ':');
      if (colon != nullptr) args.spec_accept = std::atof(colon + 1);
      if (args.spec_accept < 0.0 || args.spec_accept > 1.0) {
        std::fprintf(stderr,
                     "capacity_planner: --spec acceptance must be in [0, 1]\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--out") == 0) {
      args.out_path = need_value(i);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "capacity_planner: unknown option '%s'\n\n", arg);
      print_usage(stderr, argv[0]);
      return 2;
    }
  }
  if (args.target_rps <= 0.0 || args.slo_p99_ttft_ms <= 0.0 ||
      args.duration_s <= 0.0) {
    std::fprintf(stderr,
                 "capacity_planner: --target-rps and --slo-p99-ttft-ms are "
                 "required and must be positive\n\n");
    print_usage(stderr, argv[0]);
    return 2;
  }
  if (args.max_batch == 0) {
    std::fprintf(stderr, "capacity_planner: --max-batch must be positive\n");
    return 2;
  }

  sim::MeshModel mesh = sim::MeshModel::from_bench_serving();
  // Speculation reshapes the compute/wire profile per step (window rows);
  // the link re-pricing then applies to the reshaped steps.
  if (args.have_spec) {
    mesh = mesh.with_speculation(args.spec_drafts, args.spec_accept);
  }
  if (args.have_link) {
    mesh = mesh.with_link(LinkModel::mbps(args.link_mbps,
                                          args.link_latency_ms * 1e-3));
  }

  const sim::LengthDistribution prompt = sim::LengthDistribution::lognormal(
      args.prompt_median, args.prompt_sigma, 1, args.prompt_max);
  const sim::LengthDistribution output = sim::LengthDistribution::lognormal(
      args.output_median, args.output_sigma, 1, args.output_max);

  // Mean mesh-seconds one request demands: its prefill plus one slot-step
  // at max_batch lanes per output token, the rule the fleet's rho uses.
  // rho(N) = target * demand / N.
  const double mean_demand_s =
      mesh.prefill_time(static_cast<std::size_t>(
          std::llround(prompt.empirical_mean(args.seed)))) +
      output.empirical_mean(args.seed + 1) * mesh.token_time(args.max_batch);
  const std::size_t min_meshes = static_cast<std::size_t>(
      std::floor(args.target_rps * mean_demand_s)) + 1;

  std::vector<Candidate> candidates;
  if (min_meshes > args.max_meshes) {
    std::fprintf(stderr,
                 "capacity_planner: %zu meshes needed just for stability "
                 "(rho < 1) exceeds --max-meshes %zu\n",
                 min_meshes, args.max_meshes);
    const std::string report = json_report(args, mesh, mean_demand_s,
                                           min_meshes, candidates, nullptr);
    std::fputs(report.c_str(), stdout);
    return 1;
  }

  const std::size_t num_requests = static_cast<std::size_t>(
      std::ceil(args.target_rps * args.duration_s));
  const auto evaluate = [&](std::size_t meshes) {
    Candidate c;
    c.meshes = meshes;
    if (meshes < min_meshes) {  // refused: rho >= 1
      c.refused_unstable = true;
      candidates.push_back(c);
      return c;
    }
    const sim::OpenLoopTraffic traffic{
        .base_rate_rps = args.target_rps,
        .diurnal = {.amplitude = args.diurnal_amplitude,
                    .period = args.diurnal_period_s},
        .prompt = prompt,
        .output = output,
        .num_requests = num_requests,
        .seed = args.seed,
    };
    const sim::FleetConfig config{
        .num_meshes = meshes,
        .mesh = mesh,
        .max_batch = args.max_batch,
        .max_queue_per_mesh = args.max_queue,
        .policy = args.policy,
        .ttft_slo = args.slo_p99_ttft_ms * 1e-3,
    };
    c.report = sim::simulate_fleet(config, traffic);
    c.feasible = c.report.stable && c.report.rejected == 0 &&
                 c.report.ttft.p99 * 1e3 <= args.slo_p99_ttft_ms;
    candidates.push_back(c);
    return c;
  };

  // Grow an upper bound by doubling, then binary-search the smallest
  // feasible mesh count in (lo, hi].
  Candidate best;
  bool have_best = false;
  std::size_t lo = min_meshes - 1;  // known infeasible (rho >= 1)
  std::size_t hi = min_meshes;
  for (;;) {
    const Candidate c = evaluate(hi);
    if (c.feasible) {
      best = c;
      have_best = true;
      break;
    }
    lo = hi;
    if (hi >= args.max_meshes) break;
    hi = std::min(args.max_meshes, hi * 2);
  }
  if (have_best) {
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const Candidate c = evaluate(mid);
      if (c.feasible) {
        best = c;
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }

  const std::string report =
      json_report(args, mesh, mean_demand_s, min_meshes, candidates,
                  have_best ? &best : nullptr);
  if (args.out_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(args.out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "capacity_planner: cannot write '%s'\n",
                   args.out_path.c_str());
      return 1;
    }
    std::fputs(report.c_str(), f);
    std::fclose(f);
  }
  if (!have_best) {
    std::fprintf(stderr,
                 "capacity_planner: no feasible mesh count up to %zu\n",
                 args.max_meshes);
    return 1;
  }
  return 0;
}
