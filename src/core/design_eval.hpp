// Scoring a flow-control design against the paper's four goals (§2.4).
//
// A "design" is a feedback style plus a gateway service discipline (the two
// axes of the paper). evaluate_design() runs the same measured procedures
// the experiments use and returns a verdict per goal:
//
//   tsi              -- steady states scale linearly with server rates
//                       (probed with the additive TSI adjuster; Theorem 1
//                       makes this a property of the adjuster, so it holds
//                       for every design here);
//   guaranteed_fair  -- every converged steady state from random starts
//                       passes the §2.4.2 fairness criterion;
//   robust           -- under timid/greedy heterogeneous b_ss targets,
//                       every connection ends at or above the reservation
//                       floor (§2.4.4);
//   unilateral_implies_systemic -- no point on an eta grid is two-sided
//                       unilaterally stable yet fails to return from a
//                       small perturbation (§3.3 / Theorem 4).
//
// This is the programmatic form of the paper's §5 summary table; E12
// renders it.
#pragma once

#include <cstdint>
#include <memory>

#include "core/model.hpp"

namespace ffc::core {

/// Verdicts for one design.
struct DesignGoals {
  bool tsi = false;
  bool guaranteed_fair = false;
  bool robust = false;
  bool unilateral_implies_systemic = false;
};

/// Tunables for the measurement procedures.
struct DesignEvalOptions {
  std::size_t num_connections = 4;    ///< gateway fan-in for the probes
  std::size_t stability_connections = 8;  ///< fan-in for the eta grid
  std::size_t fairness_trials = 8;
  double eta = 0.1;                   ///< adjuster gain for fair/TSI probes
  double beta = 0.5;                  ///< homogeneous steady signal
  double beta_timid = 0.3;            ///< heterogeneity probe
  double beta_greedy = 0.7;
  double eta_grid_max = 1.6;          ///< stability grid [0.1, max], step .1
  std::uint64_t seed = 1;
};

/// Evaluates the design (style x discipline, with B(C) = C/(1+C)).
DesignGoals evaluate_design(
    FeedbackStyle style,
    std::shared_ptr<const queueing::ServiceDiscipline> discipline,
    const DesignEvalOptions& options = {});

}  // namespace ffc::core
