// chaos_hunt: run a declarative hunt spec (docs/SEARCH.md) against the
// symmetric single-bottleneck oracle family.
//
//   $ chaos_hunt FILE.ini [--check] [--jobs N] [--seed S]
//
// Default mode loads the spec, builds the [oracle] family -- a single
// bottleneck with mu = N, quadratic signal B(C) = (C/(1+C))^2, and
// additive eta/beta adjusters under the spec's discipline and feedback
// mode -- and hunts with the seeded-restart CEM loop (plus tree
// refinement when the spec sets tree_iterations). The driver understands
// two axis names: 'eta' (the gain, required) and 'beta' (overrides the
// [oracle] beta when declared). Evaluations fan out through
// exec::SweepRunner: output is byte-identical at any --jobs.
//
// --check only validates: strict parse, canonical round-trip (parse ->
// dump -> parse must reproduce dump byte-identically), and SearchSpace
// materialization. check-docs runs every committed [hunt] spec through
// this gate (tools/check_docs.py --hunt-lint).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/ffc.hpp"
#include "exec/cli.hpp"
#include "network/builders.hpp"
#include "queueing/discipline.hpp"
#include "report/table.hpp"
#include "search/cem.hpp"
#include "search/hunt_spec.hpp"
#include "search/tree.hpp"
#include "spectral/stability.hpp"

namespace {

using namespace ffc;

int usage() {
  std::cerr << "usage: chaos_hunt FILE.ini [--check] [--jobs N>=0] "
               "[--seed S]\n";
  return EXIT_FAILURE;
}

/// The oracle: spectral analysis of the spec's bottleneck family at one
/// candidate. Returns NaN when the fixed point does not converge.
struct SpectralProbe {
  double radius = 0.0;
  bool unstable = false;
  bool converged = false;
};

SpectralProbe probe(const search::HuntSpec& spec, double eta, double beta) {
  core::FlowControlModel model(
      network::single_bottleneck(spec.connections, double(spec.connections)),
      queueing::make_discipline(spec.discipline),
      std::make_shared<core::QuadraticSignal>(),
      core::feedback_style(spec.feedback),
      std::make_shared<core::AdditiveTsi>(eta, beta));
  core::FixedPointOptions fp;
  fp.damping = 0.5;
  const auto fixed =
      core::solve_fixed_point(model, core::fair_steady_state(model), fp);
  SpectralProbe result;
  if (!fixed.converged) return result;
  spectral::SpectralOptions opts;
  opts.method = spectral::SpectralOptions::Method::Iterative;
  // Aggregate feedback parks an (N-1)-dimensional manifold at exactly 1;
  // deflating it mode by mode is futile (E16), so instability is read off
  // the raw radius escaping the unit circle instead.
  opts.max_unit_deflations = 0;
  const auto report = spectral::spectral_stability(model, fixed.rates, opts);
  result.converged = report.converged;
  result.radius = report.spectral_radius;
  result.unstable = report.spectral_radius > 1.0 + 1e-6;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  bool check_only = false;
  std::size_t jobs = 0;
  bool seed_override = false;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    exec::TakeResult taken;
    if (arg == "--check") {
      check_only = true;
    } else if ((taken = exec::take_flag_value("--jobs", argc, argv, i,
                                              value)) !=
               exec::TakeResult::NoMatch) {
      if (taken == exec::TakeResult::Error || !exec::parse_size(value, jobs)) {
        return usage();
      }
    } else if ((taken = exec::take_flag_value("--seed", argc, argv, i,
                                              value)) !=
               exec::TakeResult::NoMatch) {
      if (taken == exec::TakeResult::Error || !exec::parse_u64(value, seed)) {
        return usage();
      }
      seed_override = true;
    } else if (arg.substr(0, 2) == "--" || !file.empty()) {
      return usage();
    } else {
      file = arg;
    }
  }
  if (file.empty()) return usage();

  try {
    search::HuntSpec spec = search::load_hunt_file(file);

    // Canonical round-trip: dump must be a fixed point of parse o dump.
    const std::string canonical = spec.dump();
    const std::string again =
        search::parse_hunt(canonical, "<dump>").dump();
    if (again != canonical) {
      std::cerr << "error: dump/parse round-trip is not canonical for '"
                << file << "'\n";
      return EXIT_FAILURE;
    }
    const search::SearchSpace space = spec.to_space();  // axis validation

    if (check_only) {
      std::cout << "hunt '" << spec.name << "': OK (" << space.num_axes()
                << " axes, canonical form " << canonical.size()
                << " bytes)\n";
      return EXIT_SUCCESS;
    }

    if (seed_override) spec.seed = seed;
    const std::size_t eta_axis = space.axis_index("eta");
    std::size_t beta_axis = space.num_axes();
    for (std::size_t a = 0; a < space.num_axes(); ++a) {
      if (space.axis_at(a).name == "beta") beta_axis = a;
    }

    const search::FitnessFn fn =
        [&](const std::vector<double>& candidate, std::uint64_t /*seed*/,
            obs::MetricRegistry& metrics) -> double {
      const double eta = candidate[eta_axis];
      const double beta =
          beta_axis < space.num_axes() ? candidate[beta_axis] : spec.beta;
      const SpectralProbe p = probe(spec, eta, beta);
      metrics.add("hunt.spectral_probes", 1);
      if (!p.converged) return std::nan("");
      switch (spec.fitness) {
        case search::FitnessKind::SpectralRadius:
          return p.radius;
        case search::FitnessKind::SlowestConvergence:
          return search::slowest_convergence_fitness(p.radius);
        case search::FitnessKind::EarliestOnset:
          // Stable candidates rank by their gain: in this monotone family
          // larger stable gains sit closer to the boundary, so the
          // distribution tightens onto the onset from both sides.
          return search::onset_fitness(p.unstable, eta, eta);
        case search::FitnessKind::MaxUnfairness:
          // The symmetric oracle cannot be unfair; score the spread of the
          // spectrum instead of pretending otherwise.
          return std::nan("");
      }
      return std::nan("");
    };
    if (spec.fitness == search::FitnessKind::MaxUnfairness) {
      std::cerr << "error: the chaos_hunt oracle is symmetric; "
                   "'max_unfairness' hunts run through E19 "
                   "(ffc_repro --only E19)\n";
      return usage();
    }

    std::cout << "hunt '" << spec.name << "': " << spec.description << "\n"
              << "oracle: N = " << spec.connections << ", beta = "
              << spec.beta << ", " << spec.discipline << " + "
              << spec.feedback << ", seed " << spec.seed << "\n";

    obs::MetricRegistry metrics;
    search::SearchResult result =
        search::cross_entropy_search(space, fn, spec.to_options(jobs),
                                     &metrics);
    if (spec.tree_iterations > 0 && result.found()) {
      const search::SearchResult refined = search::tree_search(
          space, fn, spec.to_tree_options(jobs), &result.best, &metrics);
      std::cout << "tree refinement: " << refined.evaluations.size()
                << " rollouts, best " << report::fmt(refined.best_fitness, 6)
                << "\n";
      if (refined.found() && refined.best_fitness > result.best_fitness) {
        result.best = refined.best;
        result.best_fitness = refined.best_fitness;
      }
    }

    report::TextTable table({"restart", "generation", "finite",
                             "elite best", "elite mean"});
    table.set_title("\nCEM generations");
    for (const search::GenerationStat& g : result.generations) {
      table.add_row({std::to_string(g.restart),
                     std::to_string(g.generation),
                     std::to_string(g.finite),
                     report::fmt(g.elite_best, 6),
                     report::fmt(g.elite_mean, 6)});
    }
    table.print(std::cout);

    std::cout << "\n" << result.evaluations.size() << " evaluations ("
              << result.nan_evaluations << " unscored)\n";
    if (!result.found()) {
      std::cerr << "error: no candidate could be scored\n";
      return EXIT_FAILURE;
    }
    std::cout << "best fitness " << report::fmt(result.best_fitness, 6)
              << " at";
    for (std::size_t a = 0; a < space.num_axes(); ++a) {
      std::cout << " " << space.axis_at(a).name << " = "
                << report::fmt(result.best[a], 6);
    }
    std::cout << "\n";

    if (spec.fitness == search::FitnessKind::EarliestOnset) {
      double lo = 0.0, hi = 0.0;
      const bool bracketed = result.bracket(
          space.axis_index(spec.onset_axis),
          [](const search::Evaluation& e) {
            return e.fitness >= search::kOnsetBase / 2;
          },
          lo, hi);
      if (bracketed) {
        std::cout << "onset bracket: " << spec.onset_axis << " in ["
                  << report::fmt(lo, 6) << ", " << report::fmt(hi, 6)
                  << "], width " << report::fmt(hi - lo, 6) << "\n";
      } else {
        std::cout << "onset bracket: unresolved (all samples on one side)\n";
      }
    }
    return EXIT_SUCCESS;
  } catch (const search::HuntError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return usage();
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return usage();
  }
}
