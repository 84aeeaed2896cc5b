#include "faults/fault_plan.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace ffc::faults {

namespace {

void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(std::string("FaultPlan: ") + message);
}

bool is_prob(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

}  // namespace

void FaultCounters::collect(obs::MetricRegistry& registry) const {
  registry.add("faults.signals_lost", signals_lost);
  registry.add("faults.signals_delayed", signals_delayed);
  registry.add("faults.signals_duplicated", signals_duplicated);
  registry.add("faults.gateway_degradations", gateway_degradations);
  registry.add("faults.gateway_outages", gateway_outages);
  registry.add("faults.gateway_recoveries", gateway_recoveries);
  registry.add("faults.source_leaves", source_leaves);
  registry.add("faults.source_joins", source_joins);
}

bool FaultPlan::empty() const {
  return signal_loss_prob == 0.0 && signal_duplicate_prob == 0.0 &&
         signal_delay_epochs == 0 && signal_delay_time == 0.0 &&
         gateway_faults.empty() && churn.empty();
}

std::uint64_t FaultPlan::fault_seed(std::uint64_t task_seed) const {
  // Finalize the task seed, perturb with the salt, finalize again -- the
  // same scatter-then-offset shape as exec::derive_task_seed, so the fault
  // stream never aliases the simulation streams built from task_seed.
  stats::SplitMix64 outer(task_seed);
  stats::SplitMix64 inner(outer.next() ^ salt);
  return inner.next();
}

void FaultPlan::validate_signal_fields() const {
  require(is_prob(signal_loss_prob), "signal_loss_prob must be in [0, 1]");
  require(is_prob(signal_duplicate_prob),
          "signal_duplicate_prob must be in [0, 1]");
  require(std::isfinite(signal_delay_time) && signal_delay_time >= 0.0,
          "signal_delay_time must be finite and >= 0");
}

void FaultPlan::validate(std::size_t num_gateways,
                         std::size_t num_connections) const {
  validate_signal_fields();
  for (const GatewayFault& f : gateway_faults) {
    require(f.gateway < num_gateways, "gateway fault targets unknown gateway");
    require(std::isfinite(f.start) && f.start >= 0.0,
            "gateway fault start must be finite and >= 0");
    require(std::isfinite(f.duration) && f.duration > 0.0,
            "gateway fault duration must be finite and > 0");
    require(std::isfinite(f.factor) && f.factor >= 0.0 && f.factor <= 1.0,
            "gateway fault factor must be in [0, 1]");
  }
  // Same-gateway windows may not overlap (recovery restores the nominal
  // rate, so an overlap would silently cancel the window it lands inside).
  for (std::size_t i = 0; i < gateway_faults.size(); ++i) {
    for (std::size_t j = i + 1; j < gateway_faults.size(); ++j) {
      const GatewayFault& a = gateway_faults[i];
      const GatewayFault& b = gateway_faults[j];
      if (a.gateway != b.gateway) continue;
      const bool disjoint =
          a.start + a.duration <= b.start || b.start + b.duration <= a.start;
      require(disjoint, "gateway fault windows overlap on one gateway");
    }
  }
  for (const SourceChurn& c : churn) {
    require(c.connection < num_connections,
            "churn targets unknown connection");
    require(std::isfinite(c.leave) && c.leave >= 0.0,
            "churn leave time must be finite and >= 0");
    require(!std::isnan(c.rejoin) && c.rejoin > c.leave,
            "churn rejoin must be > leave (or +infinity)");
  }
}

}  // namespace ffc::faults
