#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/engine.h"

namespace voltage::sim {

namespace {

constexpr std::size_t kNoClient = std::numeric_limits<std::size_t>::max();

struct Pending {
  Request req;
  std::size_t client = kNoClient;
};

struct Active {
  // Tokens still owed. Fractional: a speculative mesh commits
  // MeshModel::tokens_per_step() (an expectation, rarely integral) per
  // step, so completion times interpolate between step boundaries.
  double remaining = 0.0;
  Seconds arrival = 0.0;
  std::size_t client = kNoClient;
  bool first_token_pending = true;
};

class FleetSim {
 public:
  explicit FleetSim(const FleetConfig& cfg) : cfg_(cfg), meshes_(cfg.num_meshes) {
    if (cfg_.num_meshes == 0 || cfg_.max_batch == 0) {
      throw std::invalid_argument("FleetConfig: need meshes > 0, batch > 0");
    }
  }

  FleetReport run_open(const std::vector<Request>& requests) {
    if (requests.empty()) {
      throw std::invalid_argument("simulate_fleet: no requests");
    }
    Seconds last_arrival = 0.0;
    for (const Request& r : requests) {
      if (r.arrival < last_arrival) {
        throw std::invalid_argument(
            "simulate_fleet: arrivals must be time-sorted");
      }
      last_arrival = r.arrival;
      engine_.schedule(r.arrival, [this, r] { offer(r, kNoClient); });
    }
    engine_.run();
    return report(last_arrival > 0.0 ? last_arrival : engine_.now());
  }

  FleetReport run_closed(const ClosedLoopClients& clients) {
    if (clients.num_clients == 0 || clients.requests_per_client == 0 ||
        clients.mean_think <= 0.0) {
      throw std::invalid_argument(
          "ClosedLoopClients: need clients > 0, requests > 0, think > 0");
    }
    clients_ = &clients;
    rng_ = Rng(clients.seed);
    issued_.assign(clients.num_clients, 0);
    // Staggered starts: each client begins after one think time, so the
    // fleet does not see a synchronized thundering herd at t = 0.
    for (std::size_t c = 0; c < clients.num_clients; ++c) {
      engine_.schedule(sample_exponential(rng_, 1.0 / clients.mean_think),
                       [this, c] { issue(c); });
    }
    engine_.run();
    return report(engine_.now());
  }

 private:
  struct Mesh {
    std::deque<Pending> queue;
    std::vector<Active> active;
    bool stepping = false;
    Seconds busy = 0.0;
  };

  void issue(std::size_t client) {
    ++issued_[client];
    const Request r{.arrival = engine_.now(),
                    .prompt_tokens = clients_->prompt.sample(rng_),
                    .output_tokens = clients_->output.sample(rng_)};
    offer(r, client);
  }

  void client_turnaround(std::size_t client) {
    if (issued_[client] >= clients_->requests_per_client) return;
    engine_.schedule_after(
        sample_exponential(rng_, 1.0 / clients_->mean_think),
        [this, client] { issue(client); });
  }

  void offer(const Request& r, std::size_t client) {
    if (r.output_tokens == 0) {
      throw std::invalid_argument("simulate_fleet: request wants 0 tokens");
    }
    ++offered_;
    output_token_sum_ += static_cast<double>(r.output_tokens);
    demand_seconds_ += cfg_.mesh.prefill_time(r.prompt_tokens) +
                       static_cast<double>(r.output_tokens) *
                           cfg_.mesh.token_time(cfg_.max_batch);
    bool reject = false;
    const std::size_t m = pick_mesh(r, reject);
    if (reject || meshes_[m].queue.size() >= cfg_.max_queue_per_mesh) {
      ++rejected_;
      // A shed closed-loop client thinks and asks again later.
      if (client != kNoClient) client_turnaround(client);
      return;
    }
    meshes_[m].queue.push_back(Pending{.req = r, .client = client});
    maybe_start_step(m);
  }

  [[nodiscard]] std::size_t pick_mesh(const Request& r, bool& reject) {
    switch (cfg_.policy) {
      case BalancerPolicy::kRoundRobin:
        return rr_next_++ % meshes_.size();
      case BalancerPolicy::kJoinShortestQueue: {
        std::size_t best = 0;
        std::size_t best_depth = std::numeric_limits<std::size_t>::max();
        for (std::size_t m = 0; m < meshes_.size(); ++m) {
          const std::size_t depth =
              meshes_[m].queue.size() + meshes_[m].active.size();
          if (depth < best_depth) {
            best = m;
            best_depth = depth;
          }
        }
        return best;
      }
      case BalancerPolicy::kDeadlineAware: {
        std::size_t best = 0;
        Seconds best_ttft = std::numeric_limits<double>::infinity();
        for (std::size_t m = 0; m < meshes_.size(); ++m) {
          const Seconds t = predicted_ttft(meshes_[m], r);
          if (t < best_ttft) {
            best = m;
            best_ttft = t;
          }
        }
        // Shed rather than queue a request that is already predicted to
        // blow the SLO — bounded tail beats completed volume.
        reject = best_ttft > cfg_.ttft_slo;
        return best;
      }
    }
    return 0;  // unreachable
  }

  // Estimated TTFT at admission time: slots open at roughly
  // max_batch / mean_output tokens per step when the mesh is saturated, so
  // a queue of q requests waits ~ q * mean_output * step / max_batch before
  // its prefill even starts. A coarse estimate — it is a balancer, not an
  // oracle — but it is deterministic and monotone in backlog.
  [[nodiscard]] Seconds predicted_ttft(const Mesh& mesh,
                                       const Request& r) const {
    const double mean_output =
        offered_ == 0 ? static_cast<double>(r.output_tokens)
                      : output_token_sum_ / static_cast<double>(offered_);
    const double bmax = cfg_.mesh.max_calibrated_batch();
    const Seconds step = cfg_.mesh.step_time(bmax);
    const bool has_free_slot =
        mesh.queue.empty() && mesh.active.size() < cfg_.max_batch;
    const Seconds queue_wait =
        has_free_slot ? 0.0
                      : static_cast<double>(mesh.queue.size() + 1) *
                            mean_output * step /
                            (bmax * cfg_.mesh.tokens_per_step());
    return queue_wait + cfg_.mesh.prefill_time(r.prompt_tokens) + step;
  }

  void maybe_start_step(std::size_t m) {
    Mesh& mesh = meshes_[m];
    if (mesh.stepping) return;
    // Iteration-level join: waiting requests enter at the step boundary,
    // paying their prefill as part of the step they join.
    Seconds prefill = 0.0;
    while (mesh.active.size() < cfg_.max_batch && !mesh.queue.empty()) {
      Pending p = std::move(mesh.queue.front());
      mesh.queue.pop_front();
      prefill += cfg_.mesh.prefill_time(p.req.prompt_tokens);
      queue_wait_.record(engine_.now() - p.req.arrival);
      mesh.active.push_back(
          Active{.remaining = static_cast<double>(p.req.output_tokens),
                 .arrival = p.req.arrival,
                 .client = p.client});
    }
    if (mesh.active.empty()) return;
    const Seconds dt =
        cfg_.mesh.step_time(static_cast<double>(mesh.active.size())) + prefill;
    mesh.stepping = true;
    mesh.busy += dt;
    engine_.schedule_after(dt, [this, m] { finish_step(m); });
  }

  void finish_step(std::size_t m) {
    Mesh& mesh = meshes_[m];
    const Seconds now = engine_.now();
    std::vector<Active> still_running;
    still_running.reserve(mesh.active.size());
    // Each step commits tokens_per_step() tokens per lane (1.0 without
    // speculation; the expected acceptance run length with it).
    const double commit = cfg_.mesh.tokens_per_step();
    for (Active& a : mesh.active) {
      if (a.first_token_pending) {
        a.first_token_pending = false;
        const Seconds ttft = now - a.arrival;
        ttft_.record(ttft);
        if (ttft <= cfg_.ttft_slo) ++within_slo_;
      }
      tokens_generated_ += std::min(commit, a.remaining);
      a.remaining -= commit;
      if (a.remaining <= 0.0) {
        ++completed_;
        e2e_.record(now - a.arrival);
        if (a.client != kNoClient) client_turnaround(a.client);
      } else {
        still_running.push_back(a);
      }
    }
    mesh.active = std::move(still_running);
    mesh.stepping = false;
    maybe_start_step(m);
  }

  [[nodiscard]] FleetReport report(Seconds offered_horizon) const {
    FleetReport rep;
    rep.num_meshes = meshes_.size();
    rep.offered = offered_;
    rep.completed = completed_;
    rep.rejected = rejected_;
    rep.makespan = engine_.now();
    if (offered_horizon > 0.0) {
      rep.offered_rps = static_cast<double>(offered_) / offered_horizon;
      rep.offered_load =
          demand_seconds_ /
          (offered_horizon * static_cast<double>(meshes_.size()));
    }
    if (rep.makespan > 0.0) {
      rep.achieved_rps = static_cast<double>(completed_) / rep.makespan;
      rep.tokens_per_s = tokens_generated_ / rep.makespan;
      double busy = 0.0;
      for (const Mesh& mesh : meshes_) busy += mesh.busy;
      rep.mean_mesh_utilization =
          busy / (rep.makespan * static_cast<double>(meshes_.size()));
    }
    rep.stable = rep.offered_load < 1.0;
    rep.slo_attainment =
        completed_ == 0 ? 0.0
                        : static_cast<double>(within_slo_) /
                              static_cast<double>(completed_);
    rep.ttft = ttft_.snapshot();
    rep.e2e = e2e_.snapshot();
    rep.queue_wait = queue_wait_.snapshot();
    return rep;
  }

  FleetConfig cfg_;
  Engine engine_;
  std::vector<Mesh> meshes_;
  std::size_t rr_next_ = 0;

  std::size_t offered_ = 0;
  std::size_t completed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t within_slo_ = 0;
  double tokens_generated_ = 0.0;
  double output_token_sum_ = 0.0;
  double demand_seconds_ = 0.0;

  obs::Histogram ttft_;
  obs::Histogram e2e_;
  obs::Histogram queue_wait_;

  // Closed-loop state.
  const ClosedLoopClients* clients_ = nullptr;
  Rng rng_{0};
  std::vector<std::size_t> issued_;
};

}  // namespace

FleetReport simulate_fleet(const FleetConfig& config,
                           const std::vector<Request>& requests) {
  FleetSim sim(config);
  return sim.run_open(requests);
}

FleetReport simulate_fleet(const FleetConfig& config,
                           const OpenLoopTraffic& traffic) {
  return simulate_fleet(config, traffic.generate());
}

FleetReport simulate_fleet_closed_loop(const FleetConfig& config,
                                       const ClosedLoopClients& clients) {
  FleetSim sim(config);
  return sim.run_closed(clients);
}

}  // namespace voltage::sim
