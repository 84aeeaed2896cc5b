// hunt: the S2 chaos-onset hunt -- earliest gain eta in [1, 2] at which the
// symmetric FIFO bottleneck (N = 512, aggregate feedback, quadratic signal,
// additive TSI) loses spectral stability -- run by the seeded-restart CEM
// loop with its evaluations fanned out over exec::SweepRunner workers.
// The many-small-solves use of `core` and `spectral` (one fixed point and
// one spectral solve per evaluation), plus `search` and the `exec` fan-out
// with its per-generation barriers.
//
// The budgets live in the spec file next to this source (a larger budget
// than scenarios/chaos_hunt.ini), parsed once before any timing. The
// set-up is the library work before the first evaluation: the search space
// and the oracle family's base case with its fair steady state. The
// workload seed is the hunt's master seed. Checks: the base case's fair
// steady state is positive, no evaluation returns NaN, and the onset
// bracket contains sqrt(2) (to the oracle's resolution) and is narrower
// than E5's 0.0025 grid step.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "core/steady_state.hpp"
#include "harness.hpp"
#include "network/builders.hpp"
#include "obs/metrics.hpp"
#include "queueing/fifo.hpp"
#include "search/cem.hpp"
#include "search/fitness.hpp"
#include "search/space.hpp"
#include "spectral/stability.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr double kGridStep = 0.0025;  // E5's bifurcation grid
/// A gain counts as unstable only when the radius exceeds 1 + kMargin.
/// Near the onset the radius is eta sqrt(2) - 1, so the oracle's own onset
/// sits kMargin / sqrt(2) above sqrt(2), moved by at most as much again by
/// the eigensolver's 1e-7 relative residual: the bracket's lower end may
/// lie up to sqrt(2) kMargin above sqrt(2).
constexpr double kMargin = 1e-6;
/// Set-ups per set-up sample: one set-up takes about 0.1 ms.
constexpr std::size_t kSetupBatch = 200;

/// The hunt as the spec file states it.
struct HuntSpec {
  std::size_t connections = 0;
  double beta = 0.0;
  double damping = 1.0;
  double eta_lo = 0.0;
  double eta_hi = 0.0;
  search::SearchOptions options;
};

/// What the library builds before the search starts: the search space and
/// the oracle family's base case, the model at the axis's lower end with
/// its fair steady state.
struct HuntSetup {
  search::SearchSpace space;
  std::vector<double> base_fair;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read hunt spec '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  const std::size_t e = s.find_last_not_of(" \t\r");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

/// Parses `key = value` lines ('#' starts a comment); every key is
/// required and unknown keys are errors.
HuntSpec parse_spec(const std::string& text, std::size_t jobs,
                    std::uint64_t seed) {
  std::map<std::string, double> kv;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    const std::string key = trim(line.substr(0, eq));
    const std::string value =
        eq == std::string::npos ? std::string() : trim(line.substr(eq + 1));
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !std::isfinite(v) || kv.count(key)) {
      throw std::runtime_error("hunt spec: bad line '" + line + "'");
    }
    kv[key] = v;
  }
  const auto take = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::runtime_error(std::string("hunt spec: missing ") + key);
    }
    const double v = it->second;
    kv.erase(it);
    return v;
  };
  const auto count = [&](const char* key) {
    const double v = take(key);
    if (!(v >= 1.0 && v <= 1e6 && v == std::floor(v))) {
      throw std::runtime_error(std::string("hunt spec: bad count ") + key);
    }
    return static_cast<std::size_t>(v);
  };
  HuntSpec spec;
  spec.connections = count("connections");
  spec.beta = take("beta");
  spec.eta_lo = take("eta_lo");
  spec.eta_hi = take("eta_hi");
  spec.damping = take("damping");
  spec.options.population = count("population");
  spec.options.elite = count("elite");
  spec.options.generations = count("generations");
  spec.options.restarts = count("restarts");
  spec.options.initial_sigma = take("initial_sigma");
  spec.options.sigma_floor = take("sigma_floor");
  if (!kv.empty()) {
    throw std::runtime_error("hunt spec: unknown key " + kv.begin()->first);
  }
  spec.options.exec.jobs = jobs;
  spec.options.exec.base_seed = seed;
  return spec;
}

/// One member of the oracle family: the S2 bottleneck at gain `eta`.
core::FlowControlModel oracle_model(const HuntSpec& spec, double eta) {
  network::Topology topology = in_span("network.single_bottleneck", [&] {
    return network::single_bottleneck(spec.connections,
                                      double(spec.connections));
  });
  return in_span("core.model", [&] {
    return core::FlowControlModel(
        std::move(topology), std::make_shared<queueing::Fifo>(),
        std::make_shared<core::QuadraticSignal>(),
        core::FeedbackStyle::Aggregate,
        std::make_shared<core::AdditiveTsi>(eta, spec.beta));
  });
}

HuntSetup set_up(const HuntSpec& spec) {
  HuntSetup s;
  in_span("search.space",
          [&] { s.space.continuous("eta", spec.eta_lo, spec.eta_hi); });
  const core::FlowControlModel base = oracle_model(spec, spec.eta_lo);
  s.base_fair = in_span("core.fair_steady_state",
                        [&] { return core::fair_steady_state(base); });
  return s;
}

struct Probe {
  double radius = 0.0;
  bool converged = false;
  std::size_t iterations = 0;
  std::size_t model_evaluations = 0;
  bool analytic = false;
  std::size_t unit_modes = 0;
};

/// The oracle at one gain: fixed point of the S2 family, then its
/// spectral radius (aggregate feedback parks an (N-1)-dimensional manifold
/// at 1, so no unit modes are deflated and instability is the raw radius
/// leaving the unit circle).
Probe probe(const HuntSpec& spec, double eta) {
  const core::FlowControlModel model = oracle_model(spec, eta);
  std::vector<double> start = in_span(
      "core.fair_steady_state", [&] { return core::fair_steady_state(model); });
  core::FixedPointOptions fp;
  fp.damping = spec.damping;
  const core::FixedPointResult fixed = in_span("core.solve_fixed_point", [&] {
    return core::solve_fixed_point(model, std::move(start), fp);
  });
  Probe p;
  p.iterations = fixed.iterations;
  if (!fixed.converged) return p;
  spectral::SpectralOptions opts;
  opts.method = spectral::SpectralOptions::Method::Iterative;
  opts.max_unit_deflations = 0;
  const spectral::SpectralReport report =
      in_span("spectral.spectral_stability", [&] {
        return spectral::spectral_stability(model, fixed.rates, opts);
      });
  p.converged = report.converged;
  p.radius = report.spectral_radius;
  p.model_evaluations = report.model_evaluations;
  p.analytic = report.analytic_jvp;
  p.unit_modes = report.unit_modes_deflated;
  return p;
}

}  // namespace

void run_hunt(Harness& h) {
  const HuntSpec spec = parse_spec(read_file(h.options().spec),
                                   h.options().jobs, h.options().seed);
  HuntSetup setup;
  const auto setup_once = [&] { setup = set_up(spec); };
  h.measure(kSetupBatch, HostProbe::kThroughput, setup_once, [&](bool) {
    obs::MetricRegistry registry;
    search::SearchResult result;
    const double t = h.timed([&] {
      Span search_span("search.cross_entropy_search");
      const std::uint32_t parent = search_span.id();
      const search::FitnessFn fn = [&spec, parent](
                                       const std::vector<double>& candidate,
                                       std::uint64_t /*seed*/,
                                       obs::MetricRegistry& metrics) {
        Span eval("search.evaluate", parent);
        const double eta = candidate[0];
        const Probe p = probe(spec, eta);
        metrics.add("perfbench.fixed_point_iterations", p.iterations);
        metrics.add("perfbench.model_evaluations", p.model_evaluations);
        metrics.add("perfbench.analytic_jvp", p.analytic ? 1 : 0);
        metrics.add("perfbench.unit_modes_deflated", p.unit_modes);
        if (!p.converged) return std::nan("");
        return search::onset_fitness(p.radius > 1.0 + kMargin, eta, eta);
      };
      result = search::cross_entropy_search(setup.space, fn, spec.options,
                                            &registry);
    });

    bool base_ok = setup.base_fair.size() == spec.connections;
    for (double r : setup.base_fair) {
      base_ok = base_ok && std::isfinite(r) && r > 0.0;
      h.fingerprint(r);
    }
    h.check(base_ok, "the base case's fair steady state is not positive");
    for (const search::Evaluation& e : result.evaluations) {
      h.check(!std::isnan(e.fitness),
              "evaluation " + std::to_string(e.index) + " at eta " +
                  std::to_string(e.candidate[0]) + " returned NaN");
    }
    double lo = 0.0, hi = 0.0;
    const bool bracketed = result.bracket(
        0,
        [](const search::Evaluation& e) {
          return e.fitness > search::kOnsetBase / 2.0;
        },
        lo, hi);
    const double onset = std::sqrt(2.0);
    h.check(bracketed && lo <= onset + onset * kMargin && onset < hi,
            "onset bracket [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "] does not contain sqrt(2)");
    h.check(bracketed && hi - lo < kGridStep,
            "onset bracket width " + std::to_string(hi - lo) +
                " is not below the 0.0025 grid step");
    for (char c : result.log()) h.fingerprint(std::uint64_t(std::uint8_t(c)));

    h.expect_same("search.evaluations",
                  double(registry.counter("search.evaluations")));
    h.expect_same("search.generations",
                  double(registry.counter("search.generations")));
    h.expect_same("core.fixed_point_iterations",
                  double(registry.counter("perfbench.fixed_point_iterations")));
    h.expect_same("spectral.model_evaluations",
                  double(registry.counter("perfbench.model_evaluations")));
    h.expect_same("spectral.analytic_jvp",
                  double(registry.counter("perfbench.analytic_jvp")));
    h.expect_same("spectral.unit_modes_deflated",
                  double(registry.counter("perfbench.unit_modes_deflated")));
    h.value("network.slots", double(spec.connections));
    std::fprintf(stderr,
                 "hunt: %zu evaluations, bracket [%.7f, %.7f] in %.3f s\n",
                 result.evaluations.size(), lo, hi, t);
    return t;
  });
  h.value("exec.workers", double(spec.options.exec.jobs));
}

}  // namespace perfbench
