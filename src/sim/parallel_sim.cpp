#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/rng.hpp"

namespace ffc::sim {

namespace {

/// Salt folded into the shard-seed derivation ("shard" in ASCII), so shard
/// streams never alias sweep-task streams (exec::derive_task_seed) or fault
/// streams (FaultPlan::fault_seed) built from the same base seed.
constexpr std::uint64_t kShardSeedSalt = 0x7368617264ULL;

}  // namespace

ShardPlan ShardPlan::contiguous(std::size_t num_gateways, std::size_t k,
                                std::size_t jobs) {
  if (num_gateways == 0) {
    throw std::invalid_argument("ShardPlan: no gateways to partition");
  }
  if (k == 0) {
    throw std::invalid_argument("ShardPlan: need at least one shard");
  }
  k = std::min(k, num_gateways);  // every shard must own a gateway
  ShardPlan plan;
  plan.num_shards = k;
  plan.jobs = jobs;
  plan.shard_of_gateway.resize(num_gateways);
  for (std::size_t a = 0; a < num_gateways; ++a) {
    plan.shard_of_gateway[a] = a * k / num_gateways;
  }
  return plan;
}

std::uint64_t derive_shard_seed(std::uint64_t seed, std::size_t shard) {
  // Finalize the run seed, salt + offset by the shard index, finalize again
  // -- the scatter-then-offset shape shared with exec::derive_task_seed and
  // FaultPlan::fault_seed (docs/DETERMINISM.md).
  stats::SplitMix64 outer(seed);
  stats::SplitMix64 inner((outer.next() ^ kShardSeedSalt) +
                          static_cast<std::uint64_t>(shard));
  return inner.next();
}

ParallelNetworkSimulator::ParallelNetworkSimulator(network::Topology topology,
                                                   SimDiscipline discipline,
                                                   std::uint64_t seed,
                                                   ShardPlan plan)
    : ParallelNetworkSimulator(std::move(topology), discipline, seed,
                               std::move(plan), faults::FaultPlan{}) {}

ParallelNetworkSimulator::ParallelNetworkSimulator(network::Topology topology,
                                                   SimDiscipline discipline,
                                                   std::uint64_t seed,
                                                   ShardPlan plan,
                                                   faults::FaultPlan faults)
    : topology_(std::move(topology)), plan_(std::move(plan)) {
  const std::size_t num_gw = topology_.num_gateways();
  const std::size_t num_conn = topology_.num_connections();

  if (plan_.num_shards == 0) {
    throw std::invalid_argument(
        "ParallelNetworkSimulator: need at least one shard");
  }
  if (plan_.shard_of_gateway.size() != num_gw) {
    throw std::invalid_argument(
        "ParallelNetworkSimulator: partition size != number of gateways");
  }
  std::vector<std::size_t> gateways_owned(plan_.num_shards, 0);
  for (std::size_t s : plan_.shard_of_gateway) {
    if (s >= plan_.num_shards) {
      throw std::invalid_argument(
          "ParallelNetworkSimulator: shard id out of range");
    }
    ++gateways_owned[s];
  }
  for (std::size_t count : gateways_owned) {
    if (count == 0) {
      throw std::invalid_argument(
          "ParallelNetworkSimulator: every shard must own a gateway");
    }
  }

  // Lookahead: the minimum propagation latency over gateways that feed a
  // cross-shard hop. A zero-latency cross-shard edge would force zero-width
  // windows (no conservative schedule exists), so it is rejected.
  for (network::ConnectionId i = 0; i < num_conn; ++i) {
    const auto path = topology_.path(i);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (plan_.shard_of_gateway[path[h]] ==
          plan_.shard_of_gateway[path[h + 1]]) {
        continue;
      }
      const double latency = topology_.gateway(path[h]).latency;
      if (!(latency > 0.0)) {
        throw std::invalid_argument(
            "ParallelNetworkSimulator: zero-latency cross-shard hop "
            "(connection " + std::to_string(i) + ", gateway " +
            std::to_string(path[h]) +
            "); repartition so the edge stays inside one shard");
      }
      lookahead_ = std::min(lookahead_, latency);
    }
  }

  // Shard 0 of a one-shard run keeps the run seed, which makes it the
  // single-calendar simulator bitwise. The shards validate the fault plan.
  shards_.reserve(plan_.num_shards);
  for (std::size_t s = 0; s < plan_.num_shards; ++s) {
    const std::uint64_t shard_seed =
        plan_.num_shards == 1 ? seed : derive_shard_seed(seed, s);
    shards_.push_back(std::unique_ptr<NetworkSimulator>(new NetworkSimulator(
        topology_, discipline, shard_seed, faults, s, plan_.shard_of_gateway,
        plan_.num_shards)));
  }

  const std::size_t jobs = plan_.jobs == 0 ? plan_.num_shards : plan_.jobs;
  if (jobs > 1 && plan_.num_shards > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(
        std::min(jobs, plan_.num_shards));
  }
}

void ParallelNetworkSimulator::set_rates(const std::vector<double>& rates) {
  // Shard 0 validates before any shard changes state.
  for (auto& shard : shards_) shard->set_rates(rates);
}

void ParallelNetworkSimulator::run_for(double duration) {
  NetworkSimulator::check_duration(duration);
  const double end = now_ + duration;
  // A zero-length run still dispatches the events due at exactly `now`
  // (run_until processes time <= t), matching NetworkSimulator::run_for(0);
  // the degenerate window below does exactly that.
  bool degenerate = duration == 0.0;
  while (degenerate || now_ < end) {
    degenerate = false;
    const double window_end = std::min(end, now_ + lookahead_);
    if (pool_) {
      std::vector<std::future<void>> done;
      done.reserve(shards_.size());
      for (auto& shard : shards_) {
        NetworkSimulator* s = shard.get();
        done.push_back(
            pool_->submit([s, window_end] { s->advance_to(window_end); }));
      }
      for (auto& f : done) f.get();
    } else {
      for (auto& shard : shards_) shard->advance_to(window_end);
    }
    now_ = window_end;
    ++windows_;
    exchange_handoffs();
  }
}

void ParallelNetworkSimulator::exchange_handoffs() {
  // Drain in (destination, source) shard order: within one destination the
  // mailboxes are replayed source-shard by source-shard, each in record
  // order, so calendar sequence numbers -- and therefore same-time ties --
  // are assigned identically at every worker count.
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    for (std::size_t src = 0; src < shards_.size(); ++src) {
      if (src == dst) continue;
      auto& box = shards_[src]->boundary_->outbox[dst];
      for (const NetworkSimulator::Handoff& handoff : box) {
        shards_[dst]->propagate_at(handoff.time, handoff.packet);
      }
      handoffs_ += box.size();
      box.clear();
    }
  }
}

const NetworkSimulator& ParallelNetworkSimulator::sink_shard(
    network::ConnectionId i) const {
  return *shards_[plan_.shard_of_gateway[topology_.path(i).back()]];
}

void ParallelNetworkSimulator::reset_metrics() {
  for (auto& shard : shards_) shard->reset_metrics();
}

double ParallelNetworkSimulator::mean_queue(network::GatewayId a,
                                            network::ConnectionId i) const {
  return shards_[plan_.shard_of_gateway.at(a)]->mean_queue(a, i);
}

double ParallelNetworkSimulator::mean_total_queue(network::GatewayId a) const {
  return shards_[plan_.shard_of_gateway.at(a)]->mean_total_queue(a);
}

double ParallelNetworkSimulator::mean_delay(network::ConnectionId i) const {
  return sink_shard(i).mean_delay(i);
}

double ParallelNetworkSimulator::throughput(network::ConnectionId i) const {
  return sink_shard(i).throughput(i);
}

std::uint64_t ParallelNetworkSimulator::delivered(
    network::ConnectionId i) const {
  return sink_shard(i).delivered(i);
}

const std::vector<double>& ParallelNetworkSimulator::delay_samples(
    network::ConnectionId i) const {
  return sink_shard(i).delay_samples(i);
}

void ParallelNetworkSimulator::set_delay_sampling(bool enabled) {
  for (auto& shard : shards_) shard->set_delay_sampling(enabled);
}

std::uint64_t ParallelNetworkSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_processed();
  return total;
}

std::uint64_t ParallelNetworkSimulator::packets_generated() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->packets_generated();
  return total;
}

std::uint64_t ParallelNetworkSimulator::packets_delivered_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->packets_delivered_total();
  return total;
}

void ParallelNetworkSimulator::collect_metrics(
    obs::MetricRegistry& registry) const {
  for (const auto& shard : shards_) shard->collect_metrics(registry);
  if (plan_.num_shards > 1) {
    registry.add("par.shards", plan_.num_shards);
    registry.add("par.windows", windows_);
    registry.add("par.handoffs", handoffs_);
  }
}

faults::FaultCounters ParallelNetworkSimulator::fault_counters() const {
  faults::FaultCounters total;
  for (const auto& shard : shards_) {
    const faults::FaultCounters& c = shard->fault_counters();
    total.signals_lost += c.signals_lost;
    total.signals_delayed += c.signals_delayed;
    total.signals_duplicated += c.signals_duplicated;
    total.gateway_degradations += c.gateway_degradations;
    total.gateway_outages += c.gateway_outages;
    total.gateway_recoveries += c.gateway_recoveries;
    total.source_leaves += c.source_leaves;
    total.source_joins += c.source_joins;
  }
  return total;
}

}  // namespace ffc::sim
