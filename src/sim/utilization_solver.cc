#include "src/sim/utilization_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.h"

namespace xnuma {

UtilizationSolver::UtilizationSolver(const Topology& topo, const LatencyModel& latency,
                                     Observability* obs, int verify_period)
    : topo_(&topo), latency_(&latency), nodes_(topo.num_nodes()), verify_period_(verify_period) {
  const int nodes = nodes_;
  const LatencyParams& lp = latency.params();
  mc_util_.assign(nodes, 0.0);
  link_util_.assign(topo.num_links(), 0.0);
  traffic_.assign(static_cast<size_t>(nodes) * nodes, 0.0);
  link_scratch_.assign(topo.num_links(), 0.0);
  pair_cycles_.assign(static_cast<size_t>(nodes) * nodes, 0.0);
  pair_read_.assign(static_cast<size_t>(nodes) * nodes, 0);
  cpu_sharers_.assign(topo.num_cpus(), 0);
  for (NodeId n = 0; n < nodes; ++n) {
    mc_capacity_.push_back(topo.node(n).mc_bandwidth_bytes_per_s * lp.mc_efficiency);
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    link_capacity_.push_back(topo.link(l).bandwidth_bytes_per_s * lp.link_efficiency);
  }
  size_t memo_size = 2;
  while (memo_size < 2 * static_cast<size_t>(nodes) * nodes) {
    memo_size *= 2;
    --congestion_shift_;
  }
  congestion_memo_.resize(memo_size);
  // Flatten the all-shortest-paths table once; the solver's inner loops walk
  // this index instead of the nested Routes() vectors.
  route_pairs_.resize(static_cast<size_t>(nodes) * nodes);
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      RoutePair& pair = route_pairs_[static_cast<size_t>(s) * nodes + d];
      const auto& paths = topo.Routes(s, d);
      pair.first_path = static_cast<int32_t>(route_paths_.size());
      pair.num_paths = static_cast<int32_t>(paths.size());
      for (const auto& path : paths) {
        route_paths_.push_back(
            {static_cast<int32_t>(route_links_.size()), static_cast<int32_t>(path.size())});
        route_links_.insert(route_links_.end(), path.begin(), path.end());
      }
    }
  }
  if (obs != nullptr) {
    MetricsRegistry& m = obs->metrics();
    seconds_ = m.RegisterHistogram(
        "engine.solver.seconds", "s",
        "Wall-clock cost of one utilization fixed-point solve");
    iterations_ = m.RegisterHistogram(
        "engine.solver.iterations", "iterations",
        "Picard iterations per fixed-point solve",
        {1, 2, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64});
    residual_ = m.RegisterHistogram(
        "engine.solver.residual", "utilization",
        "Largest utilization change in the last iteration of a fixed-point solve",
        {1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1});
    unconverged_ = m.RegisterCounter(
        "engine.solver.unconverged", "solves",
        "Fixed-point solves stopped by the iteration cap above the tolerance");
    plan_builds_ = m.RegisterCounter(
        "engine.solver.plan_builds", "plans",
        "Solve plans built because the running threads or their distributions moved");
    congestion_evals_ = m.RegisterCounter(
        "engine.solver.congestion_evals", "evaluations",
        "Congestion-factor evaluations (one per distinct input per iteration)");
  }
}

void UtilizationSolver::RefreshPlan(std::span<const Thread> threads, uint64_t generation) {
  // The plan in use is current while its key and generation match.
  const bool current =
      generation == plan_.generation &&
      std::equal(threads.begin(), threads.end(), plan_.key.begin(), plan_.key.end(),
                 [](const Thread& t, const Key& k) { return t.key == k; });
  const bool verify = verify_period_ > 0 && solves_ % verify_period_ == 0;
  if (current && !verify) {
    return;
  }
  // Build the next plan in the spare one, reusing its storage.
  SolvePlan& next = spare_plan_;
  const int nodes = nodes_;
  // Running threads that share a CPU split it evenly (vCPUs consolidated on
  // one pCPU).
  std::fill(cpu_sharers_.begin(), cpu_sharers_.end(), 0);
  for (const Thread& th : threads) {
    ++cpu_sharers_[th.key.cpu];
  }
  std::fill(pair_read_.begin(), pair_read_.end(), 0);
  next.key.clear();
  next.generation = generation;
  next.share_hz.clear();
  next.p_node.clear();
  for (const Thread& th : threads) {
    const int sharers = cpu_sharers_[th.key.cpu];
    const double share = sharers <= 1 ? 1.0 : 1.0 / sharers;
    next.key.push_back(th.key);
    next.share_hz.push_back(share * topo_->cpu_hz());
    next.p_node.insert(next.p_node.end(), th.p_node, th.p_node + nodes);
    for (NodeId n = 0; n < nodes; ++n) {
      if (th.p_node[n] > 0.0) {
        pair_read_[static_cast<size_t>(th.key.node) * nodes + n] = 1;
      }
    }
  }
  next.latency_pairs.clear();
  for (NodeId dst = 0; dst < nodes; ++dst) {
    for (NodeId src = 0; src < nodes; ++src) {
      if (pair_read_[static_cast<size_t>(src) * nodes + dst] != 0) {
        next.latency_pairs.push_back({src, dst, topo_->Distance(src, dst)});
      }
    }
  }
  // A pair no running thread reads carries exactly zero traffic, which the
  // link spread skips anyway.
  next.remote_pairs.clear();
  for (NodeId src = 0; src < nodes; ++src) {
    for (NodeId dst = 0; dst < nodes; ++dst) {
      const int32_t index = src * nodes + dst;
      if (src != dst && pair_read_[index] != 0) {
        next.remote_pairs.push_back(index);
      }
    }
  }
  if (current) {
    XNUMA_CHECK(next == plan_);
    return;
  }
  std::swap(plan_, next);
  if (plan_builds_ != nullptr) {
    plan_builds_->Increment();
  }
}

double UtilizationSolver::MemoizedCongestionFactor(double util) {
  uint64_t bits = 0;
  std::memcpy(&bits, &util, sizeof(bits));
  const size_t mask = congestion_memo_.size() - 1;
  size_t slot = (bits * 0x9e3779b97f4a7c15ull) >> congestion_shift_;
  while (congestion_memo_[slot].stamp == congestion_stamp_) {
    if (congestion_memo_[slot].input_bits == bits) {
      return congestion_memo_[slot].factor;
    }
    slot = (slot + 1) & mask;
  }
  if (congestion_evals_ != nullptr) {
    congestion_evals_->Increment();
  }
  congestion_memo_[slot] = {bits, congestion_stamp_, latency_->CongestionFactor(util)};
  return congestion_memo_[slot].factor;
}

void UtilizationSolver::PriceLatencyPairs() {
  // The congestion factor follows the bottleneck, std::max(mc, link): the
  // destination controller unless its utilization is below the path's link
  // utilization. Traffic splits evenly over equal-cost paths, so a pair's
  // link utilization is the average over its paths of each path's hottest
  // link. Controllers and links shared by many pairs hand the memo the
  // same input, which it prices once.
  const int nodes = nodes_;
  ++congestion_stamp_;
  for (const LatencyPair& pair : plan_.latency_pairs) {
    const size_t index = static_cast<size_t>(pair.src) * nodes + pair.dst;
    const RoutePair& route = route_pairs_[index];
    double total = 0.0;
    for (int32_t p = 0; p < route.num_paths; ++p) {
      const RoutePath& path = route_paths_[route.first_path + p];
      double worst = 0.0;
      for (int32_t k = 0; k < path.num_links; ++k) {
        worst = std::max(worst, link_util_[route_links_[path.first_link + k]]);
      }
      total += worst;
    }
    const double link = total / static_cast<double>(route.num_paths);
    const double mc = mc_util_[pair.dst];
    pair_cycles_[index] =
        latency_->CyclesAt(pair.hops, MemoizedCongestionFactor(mc < link ? link : mc));
  }
}

void UtilizationSolver::Solve(std::span<const Thread> threads, uint64_t generation,
                              const std::vector<double>& dma_bytes_per_node) {
  const int nodes = nodes_;
  const int links = topo_->num_links();

  RefreshPlan(threads, generation);
  const size_t num_threads = threads.size();
  thread_rate_.resize(num_threads);
  thread_latency_.resize(num_threads);
  const NodeId disk_node = 6 < nodes ? 6 : nodes - 1;  // benchmark-data disk bus (§5.1)

  int iterations = 0;
  double max_delta = 0.0;
  do {
    PriceLatencyPairs();
    // Rates from current utilizations: each thread's latency is a dot
    // product of its distribution with its node's row of the latency table.
    // Its demands follow from its rate.
    std::fill(traffic_.begin(), traffic_.end(), 0.0);
    for (size_t i = 0; i < num_threads; ++i) {
      const Thread& th = threads[i];
      const double* p = &plan_.p_node[i * nodes];
      const double* cycles = &pair_cycles_[static_cast<size_t>(th.key.node) * nodes];
      double lat = 0.0;
      for (NodeId n = 0; n < nodes; ++n) {
        if (p[n] <= 0.0) {
          continue;
        }
        lat += p[n] * cycles[n];
      }
      // Memory-level parallelism overlaps part of the DRAM latency with
      // other outstanding accesses; the visible stall per access shrinks.
      // Page-walks stall the pipeline (no MLP overlap); a service time is
      // positive, so an unpriced walk term of 0 leaves its bits alone.
      const double service_cycles = th.cycles_per_access + lat / th.mlp + th.walk_cycles;
      const double rate = plan_.share_hz[i] / service_cycles;
      thread_latency_[i] = lat;
      thread_rate_[i] = rate;
      double* row = &traffic_[static_cast<size_t>(th.key.node) * nodes];
      for (NodeId n = 0; n < nodes; ++n) {
        row[n] += rate * p[n];
      }
    }

    // Each controller's demand, then its damped update.
    const double damp = kUtilizationDamping;
    max_delta = 0.0;
    for (NodeId n = 0; n < nodes; ++n) {
      double demand_bytes = dma_bytes_per_node[n];
      for (NodeId src = 0; src < nodes; ++src) {
        demand_bytes += traffic_[static_cast<size_t>(src) * nodes + n] * kCacheLineBytes;
      }
      const double updated =
          (1.0 - damp) * mc_util_[n] + damp * (demand_bytes / mc_capacity_[n]);
      max_delta = std::max(max_delta, std::fabs(updated - mc_util_[n]));
      mc_util_[n] = updated;
    }

    // Each link's load from the spread traffic and DMA, then its damped update.
    std::vector<double>& link_new = link_scratch_;
    std::fill(link_new.begin(), link_new.end(), 0.0);
    auto spread = [&](size_t index, double bytes) {
      const RoutePair& pair = route_pairs_[index];
      const double share = bytes / static_cast<double>(pair.num_paths);
      for (int32_t p = 0; p < pair.num_paths; ++p) {
        const RoutePath& path = route_paths_[pair.first_path + p];
        for (int32_t k = 0; k < path.num_links; ++k) {
          link_new[route_links_[path.first_link + k]] += share;
        }
      }
    };
    for (const int32_t index : plan_.remote_pairs) {
      const double bytes = traffic_[index] * kCacheLineBytes;
      if (bytes > 0.0) {
        spread(index, bytes);
      }
    }
    for (NodeId n = 0; n < nodes; ++n) {
      if (n == disk_node || dma_bytes_per_node[n] <= 0.0) {
        continue;
      }
      spread(static_cast<size_t>(disk_node) * nodes + n, dma_bytes_per_node[n]);
    }
    for (LinkId l = 0; l < links; ++l) {
      const double updated =
          (1.0 - damp) * link_util_[l] + damp * (link_new[l] / link_capacity_[l]);
      max_delta = std::max(max_delta, std::fabs(updated - link_util_[l]));
      link_util_[l] = updated;
    }
    ++iterations;
  } while (max_delta > kFixedPointTolerance && iterations < kFixedPointMaxIterations);

  last_iterations_ = iterations;
  last_residual_ = max_delta;
  total_iterations_ += iterations;
  ++solves_;
  if (iterations_ != nullptr) {
    iterations_->Observe(static_cast<double>(iterations));
    residual_->Observe(max_delta);
    if (max_delta > kFixedPointTolerance) {
      unconverged_->Increment();
    }
  }
}

}  // namespace xnuma
