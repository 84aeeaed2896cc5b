#include "sim/feedback_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ffc::sim {

ClosedLoopSimulator::ClosedLoopSimulator(
    network::Topology topology, SimDiscipline discipline,
    std::shared_ptr<const core::SignalFunction> signal,
    core::FeedbackStyle style,
    std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters,
    std::uint64_t seed, ClosedLoopOptions options)
    : ClosedLoopSimulator(std::move(topology), discipline, std::move(signal),
                          style, std::move(adjusters), seed,
                          faults::FaultPlan{}, options) {}

ClosedLoopSimulator::ClosedLoopSimulator(
    network::Topology topology, SimDiscipline discipline,
    std::shared_ptr<const core::SignalFunction> signal,
    core::FeedbackStyle style,
    std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters,
    std::uint64_t seed, faults::FaultPlan plan, ClosedLoopOptions options)
    : sim_(std::move(topology), discipline, seed, plan),
      signal_(std::move(signal)),
      style_(style),
      adjusters_(std::move(adjusters)),
      options_(options),
      rates_(sim_.topology().num_connections(), 0.0),
      plan_(std::move(plan)),
      impaired_(!plan_.empty()),
      fault_rng_(plan_.fault_seed(seed)) {
  if (!signal_) throw std::invalid_argument("ClosedLoop: null signal");
  if (adjusters_.size() != sim_.topology().num_connections()) {
    throw std::invalid_argument("ClosedLoop: one adjuster per connection");
  }
  for (const auto& adj : adjusters_) {
    if (!adj) throw std::invalid_argument("ClosedLoop: null adjuster");
  }
  if (!(options_.epoch_duration > 0.0) ||
      std::isinf(options_.epoch_duration)) {
    throw std::invalid_argument(
        "ClosedLoop: epoch_duration must be finite and > 0");
  }
  if (!(options_.warmup_fraction >= 0.0 && options_.warmup_fraction < 1.0)) {
    throw std::invalid_argument("ClosedLoop: warmup_fraction in [0, 1)");
  }
}

std::vector<EpochRecord> ClosedLoopSimulator::run(
    const std::vector<double>& initial_rates, std::size_t epochs) {
  if (initial_rates.size() != rates_.size()) {
    throw std::invalid_argument("ClosedLoop: initial rate size mismatch");
  }
  rates_ = initial_rates;
  signal_history_.clear();
  std::vector<EpochRecord> records;
  records.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    records.push_back(run_one_epoch());
  }
  return records;
}

EpochRecord ClosedLoopSimulator::run_one_epoch() {
  const auto& topo = sim_.topology();
  sim_.set_rates(rates_);
  sim_.run_for(options_.epoch_duration * options_.warmup_fraction);
  sim_.reset_metrics();
  sim_.run_for(options_.epoch_duration * (1.0 - options_.warmup_fraction));

  EpochRecord record;
  record.rates = rates_;
  // The model's signal stage on the measured queues.
  sim_.mean_queues_into(stage_.state.queues);
  core::signal_stage_into(topo.incidence(), style_, *signal_, stage_);
  record.signals = stage_.state.combined_signals;
  record.delays.resize(rates_.size());
  for (network::ConnectionId i = 0; i < rates_.size(); ++i) {
    // If the connection delivered nothing this epoch, fall back to its pure
    // propagation latency (the adjuster still needs a finite delay).
    record.delays[i] =
        sim_.delivered(i) > 0 ? sim_.mean_delay(i) : topo.path_latency(i);
  }

  // The signals the adjusters ACT on: the measured ones unless the plan
  // makes them stale (record.signals always holds the true measurement).
  const std::vector<double>* acted = &record.signals;
  if (impaired_ && plan_.signal_delay_epochs > 0) {
    signal_history_.push_back(record.signals);
    if (signal_history_.size() > plan_.signal_delay_epochs + 1) {
      signal_history_.erase(signal_history_.begin());
    }
    if (signal_history_.size() > 1) {
      acted = &signal_history_.front();
      fault_counters_.signals_delayed += rates_.size();
    }
  }

  for (std::size_t i = 0; i < rates_.size(); ++i) {
    int applications = 1;
    if (impaired_) {
      if (plan_.signal_loss_prob > 0.0 &&
          fault_rng_.uniform01() < plan_.signal_loss_prob) {
        applications = 0;  // feedback dropped: the source holds its rate
        ++fault_counters_.signals_lost;
      } else if (plan_.signal_duplicate_prob > 0.0 &&
                 fault_rng_.uniform01() < plan_.signal_duplicate_prob) {
        applications = 2;  // the same signal is processed twice
        ++fault_counters_.signals_duplicated;
      }
    }
    for (int n = 0; n < applications; ++n) {
      const double f =
          (*adjusters_[i])(rates_[i], (*acted)[i], record.delays[i]);
      rates_[i] = std::max(0.0, rates_[i] + f);
    }
  }
  return record;
}

void ClosedLoopSimulator::collect_metrics(obs::MetricRegistry& registry) const {
  sim_.collect_metrics(registry);
  if (impaired_) fault_counters_.collect(registry);
}

}  // namespace ffc::sim
