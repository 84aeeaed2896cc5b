#include "core/async_dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/rng.hpp"

namespace ffc::core {

namespace {

/// Piecewise-constant rate history for stale observations.
class RateHistory {
 public:
  explicit RateHistory(std::vector<double> initial) {
    times_.push_back(0.0);
    states_.push_back(std::move(initial));
  }

  void record(double time, const std::vector<double>& rates) {
    times_.push_back(time);
    states_.push_back(rates);
  }

  /// Rates in force at time `t` (clamped to the initial state for t < 0).
  const std::vector<double>& at(double t) const {
    // Last index with times_[k] <= t.
    const auto it = std::upper_bound(times_.begin(), times_.end(), t);
    const std::size_t idx =
        it == times_.begin()
            ? 0
            : static_cast<std::size_t>(it - times_.begin()) - 1;
    return states_[idx];
  }

  /// Drops history older than `t` (keeps the state spanning t).
  void trim_before(double t) {
    const auto it = std::upper_bound(times_.begin(), times_.end(), t);
    if (it == times_.begin()) return;
    const std::size_t keep_from =
        static_cast<std::size_t>(it - times_.begin()) - 1;
    if (keep_from == 0) return;
    times_.erase(times_.begin(),
                 times_.begin() + static_cast<long>(keep_from));
    states_.erase(states_.begin(),
                  states_.begin() + static_cast<long>(keep_from));
  }

 private:
  std::vector<double> times_;
  std::vector<std::vector<double>> states_;
};

double clamp_period(double period) {
  // Guard against zero or non-finite round-trip estimates (overloaded
  // gateways give d = inf); keep the source updating at a sane cadence.
  if (!std::isfinite(period) || period <= 1e-6) return 1.0;
  return std::min(period, 100.0);
}

}  // namespace

AsyncResult run_async(const FlowControlModel& model,
                      std::vector<double> initial,
                      const AsyncOptions& options) {
  const std::size_t n = model.topology().num_connections();
  if (initial.size() != n) {
    throw std::invalid_argument("run_async: rate vector size mismatch");
  }
  if (!(options.horizon > 0.0) || !(options.jitter >= 0.0) ||
      options.jitter >= 1.0 || options.feedback_delay_factor < 0.0 ||
      (!options.rtt_paced && !(options.fixed_period > 0.0)) ||
      options.settle_window_fraction <= 0.0 ||
      options.settle_window_fraction > 1.0) {
    throw std::invalid_argument("run_async: invalid options");
  }

  const bool impaired = options.faults != nullptr && !options.faults->empty();
  if (impaired) options.faults->validate_signal_fields();
  const faults::FaultPlan plan = impaired ? *options.faults : faults::FaultPlan{};

  stats::Xoshiro256 rng(options.seed);
  // Separate stream for fault decisions, so an impaired run's pacing and
  // jitter stay identical to the unimpaired run's (docs/FAULTS.md).
  stats::Xoshiro256 fault_rng(impaired ? plan.fault_seed(options.seed) : 0);
  std::vector<double> rates = std::move(initial);
  RateHistory history(rates);

  // Observations at the current and at the lagged rates, each into a
  // workspace reused across updates.
  ModelWorkspace fresh;
  ModelWorkspace lagged;

  // Initial per-source schedules, staggered across one nominal period.
  model.observe(rates, fresh);
  std::vector<double> next_update(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double period =
        options.rtt_paced ? clamp_period(fresh.state.delays[i])
                          : options.fixed_period;
    next_update[i] = rng.uniform01() * period;
  }

  AsyncResult result;
  const double settle_start =
      options.horizon * (1.0 - options.settle_window_fraction);
  double next_sample = 0.0;
  double now = 0.0;
  double scale = 1.0;
  for (double r : rates) scale = std::max(scale, r);

  while (true) {
    // Next source to act.
    std::size_t who = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (next_update[i] < next_update[who]) who = i;
    }
    const double t = next_update[who];
    if (t > options.horizon) break;

    // Trajectory samples between `now` and `t`.
    if (options.sample_interval > 0.0) {
      while (next_sample <= t) {
        result.samples.emplace_back(next_sample, history.at(next_sample));
        next_sample += options.sample_interval;
      }
    }
    now = t;

    // The source observes the network as it was `lag` ago; the fault plan
    // can add a fixed extra staleness on top of the RTT-proportional lag.
    model.observe(rates, fresh);
    const double own_delay = fresh.state.delays[who];
    double lag =
        options.feedback_delay_factor *
        (std::isfinite(own_delay) ? own_delay : clamp_period(own_delay));
    if (impaired && plan.signal_delay_time > 0.0) {
      lag += plan.signal_delay_time;
      ++result.fault_counters.signals_delayed;
    }
    const NetworkState* observed = &fresh.state;
    if (lag > 0.0) {
      model.observe(history.at(now - lag), lagged);
      observed = &lagged.state;
    }

    // Loss drops this update entirely (the source holds its rate until its
    // next tick); duplication processes the same signal twice.
    int applications = 1;
    if (impaired) {
      if (plan.signal_loss_prob > 0.0 &&
          fault_rng.uniform01() < plan.signal_loss_prob) {
        applications = 0;
        ++result.fault_counters.signals_lost;
      } else if (plan.signal_duplicate_prob > 0.0 &&
                 fault_rng.uniform01() < plan.signal_duplicate_prob) {
        applications = 2;
        ++result.fault_counters.signals_duplicated;
      }
    }
    for (int apply = 0; apply < applications; ++apply) {
      const double f = model.adjuster(who)(rates[who],
                                           observed->combined_signals[who],
                                           observed->delays[who]);
      const double updated = std::max(0.0, rates[who] + f);
      const double movement =
          std::fabs(updated - rates[who]) / std::max(scale, rates[who]);
      if (now >= settle_start) {
        result.residual = std::max(result.residual, movement);
      }
      rates[who] = updated;
      scale = std::max(scale, updated);
      history.record(now, rates);
      ++result.updates_performed;
    }
    // Stale observations never look back more than ~100 delay units (plus
    // whatever fixed staleness the fault plan adds).
    history.trim_before(now - 200.0 - plan.signal_delay_time);

    const double period =
        options.rtt_paced ? clamp_period(own_delay) : options.fixed_period;
    const double gap =
        period * (1.0 + options.jitter * rng.uniform(-1.0, 1.0));
    next_update[who] = now + std::max(gap, 1e-6);
  }

  result.final_rates = rates;
  result.settled = result.residual <= options.settle_tolerance;
  return result;
}

}  // namespace ffc::core
