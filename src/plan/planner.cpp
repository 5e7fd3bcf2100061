#include "plan/planner.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "tensor/ops.h"
#include "tensor/rng.h"

namespace voltage {

namespace {

double best_of(int reps, const auto& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

// Positions-per-device counts -> exact PartitionScheme (ratios are integer
// multiples of 1/n, so the scheme's rounded ranges reproduce the counts).
PartitionScheme scheme_from_counts(const std::vector<std::size_t>& counts,
                                   std::size_t n) {
  std::vector<double> ratios(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ratios[i] = static_cast<double>(counts[i]) / static_cast<double>(n);
  }
  return PartitionScheme(std::move(ratios));
}

}  // namespace

sim::DeviceSpec profile_this_device(std::string name, std::size_t gemm_dim,
                                    int reps) {
  if (gemm_dim == 0) {
    throw std::invalid_argument("profile_this_device: gemm_dim == 0");
  }
  Rng rng(1);
  const Tensor a = rng.normal_tensor(gemm_dim, gemm_dim, 1.0F);
  const Tensor b = rng.normal_tensor(gemm_dim, gemm_dim, 1.0F);
  const double t_gemm = best_of(reps, [&] { (void)matmul(a, b); });
  const double macs = static_cast<double>(gemm_dim) * gemm_dim * gemm_dim;

  Tensor x = rng.normal_tensor(512, 1024, 1.0F);
  const Tensor bias = rng.normal_tensor(1, 1024, 1.0F);
  // One pass = gelu (8 ops/elt) + bias add (1 op/elt), as ops.cpp counts.
  const double t_elem = best_of(reps, [&] { bias_gelu_inplace(x, bias); });
  const double elem_ops = 9.0 * static_cast<double>(x.size());

  return sim::DeviceSpec{.name = std::move(name),
                         .mac_rate = macs / t_gemm,
                         .elementwise_rate = elem_ops / t_elem};
}

PartitionScheme plan_proportional(const sim::Cluster& cluster) {
  cluster.validate();
  std::vector<double> weights;
  weights.reserve(cluster.size());
  for (const sim::DeviceSpec& d : cluster.workers) {
    weights.push_back(d.mac_rate);
  }
  return PartitionScheme::proportional(weights);
}

PlanResult optimize_scheme(const ModelSpec& spec, std::size_t n,
                           const sim::Cluster& cluster, OrderPolicy policy,
                           std::size_t max_rounds) {
  cluster.validate();
  const std::size_t k = cluster.size();
  if (n < k) {
    throw std::invalid_argument("optimize_scheme: fewer positions than devices");
  }

  // Proportional seed, quantized to whole positions summing to n.
  const PartitionScheme seed = plan_proportional(cluster);
  std::vector<std::size_t> counts(k);
  for (std::size_t i = 0; i < k; ++i) {
    counts[i] = seed.range_for(i, n).size();
  }

  PlanResult result{.scheme = scheme_from_counts(counts, n),
                    .predicted_latency = 0.0,
                    .evaluations = 1};
  result.predicted_latency =
      simulate_voltage(spec, n, cluster, result.scheme, policy).total;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    // Find the straggler (longest compute) and the most idle device under
    // the current counts.
    std::size_t slowest = 0;
    std::size_t fastest = 0;
    double worst = -1.0;
    double best = 1e300;
    for (std::size_t i = 0; i < k; ++i) {
      const LayerWork work = voltage_layer_work(
          spec.layer, n, Range{0, counts[i]}, policy);
      const double t =
          cluster.workers[i].compute_time(work.macs, work.elementwise);
      if (t > worst) {
        worst = t;
        slowest = i;
      }
      if (t < best) {
        best = t;
        fastest = i;
      }
    }
    if (slowest == fastest || counts[slowest] == 0) break;

    auto candidate = counts;
    candidate[slowest] -= 1;
    candidate[fastest] += 1;
    const PartitionScheme scheme = scheme_from_counts(candidate, n);
    const Seconds latency =
        simulate_voltage(spec, n, cluster, scheme, policy).total;
    ++result.evaluations;
    if (latency + 1e-12 < result.predicted_latency) {
      counts = std::move(candidate);
      result.scheme = scheme;
      result.predicted_latency = latency;
    } else {
      break;  // greedy local optimum
    }
  }
  return result;
}

}  // namespace voltage
