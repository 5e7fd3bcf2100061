// Ablation: the full deployment-strategy landscape the paper discusses in
// §V-C, quantified on one cluster description —
//   * batch-1 request latency: single device / Voltage / tensor parallelism
//     (star and ring all-reduce) / pipeline parallelism;
//   * saturated-stream throughput, where pipelining finally pays off;
//   * tail latency under sporadic (Poisson) arrivals per strategy, the
//     paper's §I serving motivation;
//   * heterogeneous clusters: even vs proportional vs optimizer-planned
//     partition schemes (DESIGN.md ablation #3);
//   * linear-attention extension: per-layer sync volume vs softmax Voltage.
#include <cstdio>

#include "bench_util.h"
#include "collective/cost.h"
#include "parallel/latency_model.h"
#include "parallel/pipeline.h"
#include "plan/planner.h"
#include "sim/fleet.h"
#include "transformer/linear_attention.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

sim::DeviceSpec paper_device(double scale = 1.0) {
  return sim::DeviceSpec{.name = "vcpu",
                         .mac_rate = 25e9 * scale,
                         .elementwise_rate = 4e9 * scale};
}

void strategy_table() {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  std::printf("\nBERT-Large, N=200, 500 Mbps — batch-1 latency and "
              "saturated throughput\n");
  std::printf("%3s  %10s %10s %10s %10s %10s  %12s\n", "K", "single",
              "voltage", "tp-star", "tp-ring", "pipeline", "pipe-thpt");
  bench::print_rule(76);
  const double single =
      simulate_single_device(
          spec, n, sim::Cluster::homogeneous(1, paper_device(),
                                             LinkModel::mbps(500)))
          .total;
  for (const std::size_t k : {2U, 4U, 6U}) {
    const auto cluster =
        sim::Cluster::homogeneous(k, paper_device(), LinkModel::mbps(500));
    const double voltage =
        simulate_voltage(spec, n, cluster, PartitionScheme::even(k),
                         OrderPolicy::kAdaptive)
            .total;
    const double tp_star =
        simulate_tensor_parallel(spec, n, cluster, AllReduceAlgo::kStar)
            .total;
    const double tp_ring =
        simulate_tensor_parallel(spec, n, cluster, AllReduceAlgo::kRing)
            .total;
    const PipelineReport pipe = simulate_pipeline(spec, n, cluster);
    std::printf("%3zu  %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs  %9.2f r/s\n", k,
                single, voltage, tp_star, tp_ring, pipe.request_latency,
                pipe.throughput_rps);
  }
  std::printf("single-device throughput: %.2f r/s — pipelining trades "
              "request latency for stream throughput (paper SV-C)\n",
              single_device_throughput(
                  spec, n,
                  sim::Cluster::homogeneous(1, paper_device(),
                                            LinkModel::mbps(500))));
}

// One strategy as one mesh on the fleet simulator, priced from its batch-1
// latency: single device, Voltage and tensor parallelism serve one request
// at a time in `step` seconds (an M/D/1 queue). A pipeline is a
// `stages`-lane mesh stepping at its bottleneck stage, one request per
// stage: a request joins at a step boundary and leaves `stages` steps
// later. Prefill is priced at 1e15 tokens/s, i.e. free.
sim::FleetReport serve_poisson(Seconds step, std::size_t stages, double rate) {
  std::vector<sim::StepPoint> curve{{.batch = 1.0, .step_time = step}};
  if (stages > 1) {
    curve.push_back(
        {.batch = static_cast<double>(stages), .step_time = step});
  }
  const sim::FleetConfig config{
      .num_meshes = 1,
      .mesh = sim::MeshModel(1, std::move(curve), 1e15, 0.0, LinkModel{}),
      .max_batch = stages};
  const sim::OpenLoopTraffic traffic{
      .base_rate_rps = rate,
      .diurnal = {},
      .prompt = sim::LengthDistribution::fixed(1),
      .output = sim::LengthDistribution::fixed(stages),
      .num_requests = 20000,
      .seed = 1};
  return sim::simulate_fleet(config, traffic);
}

void poisson_tail_table() {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  const std::size_t k = 4;
  const auto cluster =
      sim::Cluster::homogeneous(k, paper_device(), LinkModel::mbps(500));
  const double single =
      simulate_single_device(
          spec, n, sim::Cluster::homogeneous(1, paper_device(),
                                             LinkModel::mbps(500)))
          .total;
  const double voltage = simulate_voltage(spec, n, cluster,
                                          PartitionScheme::even(k),
                                          OrderPolicy::kAdaptive)
                             .total;
  const double tp_ring =
      simulate_tensor_parallel(spec, n, cluster, AllReduceAlgo::kRing).total;
  const PipelineReport pipe = simulate_pipeline(spec, n, cluster);
  std::printf("\nSI: p99 sojourn under Poisson arrivals, BERT-Large N=200, "
              "K=%zu, 500 Mbps\n(fleet simulator, 20000 requests per cell; "
              "pipeline = %zu-stage mesh stepping at its %.3f s bottleneck)\n",
              k, pipe.stages, pipe.bottleneck_stage);
  std::printf("%9s  %10s %10s %10s %10s\n", "rate", "single", "voltage",
              "tp-ring", "pipeline");
  bench::print_rule(54);
  for (const double rate : {0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5}) {
    std::printf("%5.1f r/s ", rate);
    const auto cell = [](const sim::FleetReport& r) {
      if (r.stable) {
        std::printf(" %9.2fs", r.e2e.p99);
      } else {
        std::printf(" %10s", "diverges");
      }
    };
    cell(serve_poisson(single, 1, rate));
    cell(serve_poisson(voltage, 1, rate));
    cell(serve_poisson(tp_ring, 1, rate));
    cell(serve_poisson(pipe.bottleneck_stage, pipe.stages, rate));
    std::printf("\n");
  }
  std::printf("(diverges: offered load >= 1, so the queue has no steady-state "
              "tail)\n");
}

void heterogeneous_table() {
  const ModelSpec spec = bert_large_spec();
  const std::size_t n = 200;
  sim::Cluster cluster;
  cluster.link = LinkModel::mbps(500);
  cluster.terminal = paper_device();
  for (const double s : {3.0, 1.5, 1.0, 0.5}) {
    cluster.workers.push_back(paper_device(s));
  }
  std::printf("\nheterogeneous cluster (speeds 3 : 1.5 : 1 : 0.5), "
              "BERT-Large N=200\n");
  const double even = simulate_voltage(spec, n, cluster,
                                       PartitionScheme::even(4),
                                       OrderPolicy::kAdaptive)
                          .total;
  const double proportional =
      simulate_voltage(spec, n, cluster, plan_proportional(cluster),
                       OrderPolicy::kAdaptive)
          .total;
  const PlanResult plan =
      optimize_scheme(spec, n, cluster, OrderPolicy::kAdaptive);
  std::printf("  even 1/K scheme        : %.3f s\n", even);
  std::printf("  speed-proportional     : %.3f s  (%.1f%% better)\n",
              proportional, 100.0 * (even - proportional) / even);
  std::printf("  optimizer (descent)    : %.3f s  (%zu evaluations)\n",
              plan.predicted_latency, plan.evaluations);
}

void linear_attention_table() {
  std::printf("\nlinear-attention extension (SVII-C): per-device per-layer "
              "sync volume\n");
  std::printf("%-28s %14s %16s\n", "layer geometry",
              "softmax (KB)", "linear-attn (KB)");
  bench::print_rule(62);
  struct Geo {
    const char* name;
    std::size_t n, f, h, fh;
  };
  for (const Geo g : {Geo{"BERT-Large (N=200)", 200, 1024, 16, 64},
                      Geo{"ViT-Base  (N=197)", 197, 768, 12, 64},
                      Geo{"GPT-2     (N=200)", 200, 768, 12, 64}}) {
    const LayerConfig cfg{.hidden = g.f,
                          .heads = g.h,
                          .head_dim = g.fh,
                          .ffn_dim = 4 * g.f,
                          .activation = Activation::kGelu};
    const double softmax_kb =
        static_cast<double>(voltage_elements_per_device_layer(g.n, g.f, 6)) *
        4.0 / 1024.0;
    const double linear_kb =
        static_cast<double>(linear_attention_sync_elements(cfg)) * 4.0 /
        1024.0;
    std::printf("%-28s %14.1f %16.1f\n", g.name, softmax_kb, linear_kb);
  }
  std::printf("(linear attention all-reduces H * F_H * (F_H + 1) state "
              "elements — independent of N)\n");
}

}  // namespace

int main() {
  std::printf("=== Ablation: deployment strategies and partition planning "
              "===\n");
  strategy_table();
  poisson_tail_table();
  heterogeneous_table();
  linear_attention_table();
  return 0;
}
