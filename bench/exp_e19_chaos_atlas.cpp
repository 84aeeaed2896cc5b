// E19 -- adversarial chaos atlas: derandomized search replaces grids.
//
// Every sweep so far asked "what happens on these grid points?"; this
// experiment asks the adversary's question -- "what is the WORST the family
// can do?" -- and answers it with the src/search optimizers (docs/SEARCH.md):
// seeded-restart CEM plus tree refinement, fanning evaluations through
// exec::SweepRunner so every hunt is byte-identical at any --jobs.
//
// Three blocks, each pinned by claims:
//
//   1. Chaos onset. The committed spec scenarios/chaos_hunt.ini hunts the
//      earliest unstable gain of the S2 family (single bottleneck, mu = N,
//      B(C) = (C/(1+C))^2, beta = 0.5) at N = 512 through the iterative
//      spectral engine. Theory puts the onset at eta* = 1/sqrt(beta) =
//      sqrt(2); E5 bracketed it with a fixed grid of step 0.0025. The hunt
//      must bracket sqrt(2) MORE tightly than that grid without knowing the
//      answer, and its evaluation log must be byte-identical at --jobs 1
//      and --jobs 3.
//
//   2. Worst-case impairment. E13b scored Theorem 5's guarantee on a fixed
//      6-cell impairment grid for individual + Fair Share (loss x
//      staleness). Those cells are re-run here byte-exactly (same world,
//      same derive_task_seed(1990, cell) seeds), then a CEM + tree hunt
//      searches the CONTINUOUS impairment space (loss in [0, 0.9],
//      duplication in [0, 0.5], staleness in {0..6} epochs) for the plan
//      that maximizes the timid sources' shortfall. The searched optimum
//      must meet or beat the worst grid cell -- the whole point of search
//      over sweep.
//
//   3. The atlas. For each of the four discipline x feedback cells, a
//      small onset hunt (N = 32, dense spectral path) and a small
//      impairment hunt produce one atlas row: the spectral onset bracket
//      (discipline-blind: every cell brackets sqrt(2), because the
//      symmetric fixed point feeds every discipline the same signal) and
//      the adversarial shortfall (emphatically not discipline-blind:
//      FIFO + aggregate starves the timid sources, Fair Share + individual
//      holds their floor). The table lands verbatim in generated
//      REPRODUCTION.md between the atlas sentinels; the check-docs atlas
//      gate byte-compares that block against a fresh ffc_repro run.
//
// Seeds: the onset hunt runs on this experiment's base seed (default 1414,
// the committed spec's seed); the impairment and atlas hunts derive their
// master seeds from it at distinct indices. The E13b baseline cells are
// pinned to E13b's own historical seed 1990 -- they must reproduce THAT
// experiment's numbers, not a reseeded variant.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/ffc.hpp"
#include "exec/param_grid.hpp"
#include "faults/fault_plan.hpp"
#include "network/builders.hpp"
#include "queueing/discipline.hpp"
#include "report/markdown.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"
#include "search/cem.hpp"
#include "search/hunt_spec.hpp"
#include "search/tree.hpp"
#include "sim/feedback_sim.hpp"
#include "spectral/stability.hpp"

#ifndef FFC_SCENARIO_DIR
#define FFC_SCENARIO_DIR "scenarios"
#endif

namespace ffc::repro {

namespace {

using namespace ffc;
using report::fmt;
using report::fmt_bool;
using report::TextTable;

// ---- E13b's world, reproduced verbatim (see exp_e13_impairment.cpp) --------
constexpr double kMu = 1.0;
constexpr std::size_t kN = 3;  // two timid sources + one greedy
constexpr double kBetaTimid = 0.35;
constexpr double kBetaGreedy = 0.65;
constexpr double kTsiEta = 0.1;
constexpr std::size_t kEpochs = 40;
constexpr double kEpochDuration = 1500.0;
constexpr std::uint64_t kE13Seed = 1990;  // E13b's historical default seed

// E5's bifurcation grid stepped eta by 0.0025; the searched bracket must
// beat that resolution.
constexpr double kE5GridStep = 0.0025;

const double kSqrt2 = std::sqrt(2.0);

std::vector<std::shared_ptr<const core::RateAdjustment>> make_adjusters() {
  return {std::make_shared<core::AdditiveTsi>(kTsiEta, kBetaTimid),
          std::make_shared<core::AdditiveTsi>(kTsiEta, kBetaTimid),
          std::make_shared<core::AdditiveTsi>(kTsiEta, kBetaGreedy)};
}

/// The discipline token of an atlas cell.
std::string_view discipline_token(bool fair_share) {
  return fair_share ? "fair_share" : "fifo";
}

/// The feedback style of an atlas cell.
core::FeedbackStyle style_of(bool individual) {
  return individual ? core::FeedbackStyle::Individual
                    : core::FeedbackStyle::Aggregate;
}

/// E13b's cell oracle: the closed loop over the packet simulator under one
/// fault plan, scored as the worst timid-source shortfall against the
/// reservation floor. Identical constants, model, and scoring to
/// exp_e13_impairment.cpp -- the baseline block below feeds it E13b's own
/// seeds and must land on E13b's numbers.
double impairment_shortfall(bool fair_share, bool individual,
                            const faults::FaultPlan& plan, std::uint64_t seed,
                            obs::MetricRegistry& metrics) {
  const auto adjusters = make_adjusters();
  sim::ClosedLoopOptions opts;
  opts.epoch_duration = kEpochDuration;
  sim::ClosedLoopSimulator loop(
      network::single_bottleneck(kN, kMu),
      fair_share ? sim::SimDiscipline::FairShare : sim::SimDiscipline::Fifo,
      std::make_shared<core::RationalSignal>(), style_of(individual),
      adjusters, seed, plan, opts);
  loop.run(std::vector<double>(kN, 0.1), kEpochs);
  loop.collect_metrics(metrics);

  core::FlowControlModel model(
      network::single_bottleneck(kN, kMu),
      queueing::make_discipline(discipline_token(fair_share)),
      std::make_shared<core::RationalSignal>(), style_of(individual),
      adjusters);
  const auto robustness = core::check_robustness(model, loop.rates());
  double shortfall = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    shortfall = std::max(shortfall, robustness.shortfall[i]);
  }
  return shortfall;
}

/// The spectral onset oracle: symmetric single bottleneck with mu = N and
/// quadratic signal under the given discipline token and feedback style,
/// probed at gain `eta`. Unstable iff an eigenvalue escapes the unit circle
/// (aggregate feedback parks its manifold at exactly 1, so the raw radius
/// carries the classification; see E16).
struct OnsetProbe {
  double radius = 0.0;
  bool unstable = false;
  bool converged = false;
};

OnsetProbe onset_probe(std::size_t n, double beta,
                       std::string_view discipline, core::FeedbackStyle style,
                       double eta) {
  core::FlowControlModel model(
      network::single_bottleneck(n, double(n)),
      queueing::make_discipline(discipline),
      std::make_shared<core::QuadraticSignal>(), style,
      std::make_shared<core::AdditiveTsi>(eta, beta));
  core::FixedPointOptions fp;
  fp.damping = 0.5;
  const auto fixed =
      core::solve_fixed_point(model, core::fair_steady_state(model), fp);
  OnsetProbe result;
  if (!fixed.converged) return result;
  spectral::SpectralOptions opts;
  if (n >= 128) {
    opts.method = spectral::SpectralOptions::Method::Iterative;
    opts.max_unit_deflations = 0;
  }
  const auto report = spectral::spectral_stability(model, fixed.rates, opts);
  result.converged = report.converged;
  result.radius = report.spectral_radius;
  result.unstable = report.spectral_radius > 1.0 + 1e-6;
  return result;
}

/// Onset-hunt fitness: stable candidates rank by their gain (closer to the
/// boundary from below is better in this monotone family), unstable ones by
/// how early they are (docs/SEARCH.md "Fitness functionals").
search::FitnessFn onset_fitness_fn(std::size_t n, double beta,
                                   std::string discipline,
                                   core::FeedbackStyle style,
                                   std::size_t eta_axis) {
  return [=](const std::vector<double>& candidate, std::uint64_t /*seed*/,
             obs::MetricRegistry& metrics) -> double {
    const double eta = candidate[eta_axis];
    const OnsetProbe p = onset_probe(n, beta, discipline, style, eta);
    metrics.add("search.oracle.spectral_probes", 1);
    if (!p.converged) return std::nan("");
    return search::onset_fitness(p.unstable, eta, eta);
  };
}

/// Extracts the [lo, hi] onset bracket from a hunt's evaluation log.
bool onset_bracket(const search::SearchResult& result, std::size_t eta_axis,
                   double& lo, double& hi) {
  return result.bracket(
      eta_axis,
      [](const search::Evaluation& e) {
        return e.fitness >= search::kOnsetBase / 2;
      },
      lo, hi);
}

/// Block 2's impairment domain: deliberately LARGER than E13b's grid
/// envelope -- continuous loss to 0.9, signal duplication (an axis the grid
/// never probed at all), staleness to six epochs. Staleness is the discrete
/// axis the tree refinement branches over.
search::SearchSpace impairment_space() {
  search::SearchSpace space;
  space.continuous("loss", 0.0, 0.9)
      .continuous("dup", 0.0, 0.5)
      .discrete("delay", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  return space;
}

/// The atlas's impairment domain: the MODERATE envelope E13b's graceful-
/// degradation verdict was issued for (loss to 0.5, staleness to 3 epochs,
/// at most trace duplication). Inside it the discipline contrast is real
/// and budget-robust: FIFO + aggregate starves the timid sources on a
/// clean path already, Fair Share + individual holds the floor. (Outside
/// it, block 2 shows, a strong enough adversary eventually starves every
/// cell -- so an atlas over the extended space would only report the cap.)
search::SearchSpace moderate_impairment_space() {
  search::SearchSpace space;
  space.continuous("loss", 0.0, 0.5)
      .continuous("dup", 0.0, 0.1)
      .discrete("delay", {0.0, 1.0, 2.0, 3.0});
  return space;
}

faults::FaultPlan plan_of(const std::vector<double>& candidate) {
  faults::FaultPlan plan;
  plan.signal_loss_prob = candidate[0];
  plan.signal_duplicate_prob = candidate[1];
  plan.signal_delay_epochs = static_cast<std::size_t>(candidate[2]);
  return plan;
}

search::FitnessFn impairment_fitness_fn(bool fair_share, bool individual) {
  return [=](const std::vector<double>& candidate, std::uint64_t seed,
             obs::MetricRegistry& metrics) -> double {
    return impairment_shortfall(fair_share, individual, plan_of(candidate),
                                seed, metrics);
  };
}

}  // namespace

void run_e19(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E19: adversarial chaos atlas (CEM + tree search) ==\n";

  obs::MetricRegistry search_metrics;  // merged across every hunt
  std::size_t expected_evaluations = 0;

  // ---- 1. chaos onset from the committed hunt spec -------------------------
  search::HuntSpec spec =
      search::load_hunt_file(std::string(FFC_SCENARIO_DIR) + "/chaos_hunt.ini");
  spec.seed = ctx.sweep.base_seed;  // default 1414 == the committed seed
  const search::SearchSpace onset_space = spec.to_space();
  const std::size_t eta_axis = onset_space.axis_index(spec.onset_axis);
  const search::FitnessFn onset_fn = onset_fitness_fn(
      spec.connections, spec.beta, spec.discipline,
      core::feedback_style(spec.feedback), eta_axis);

  out << "\nhunt '" << spec.name << "': N = " << spec.connections
      << ", beta = " << fmt(spec.beta, 2) << ", " << spec.discipline << " + "
      << spec.feedback << ", seed " << spec.seed << "\n"
      << "theory: onset at eta* = 1/sqrt(beta) = sqrt(2) = "
      << fmt(kSqrt2, 6) << "; E5 grid step " << fmt(kE5GridStep, 4) << "\n";

  const search::SearchResult onset =
      search::cross_entropy_search(onset_space, onset_fn,
                                   spec.to_options(ctx.sweep.jobs),
                                   &search_metrics);
  // The same hunt at a different fan-out must produce the same bytes.
  search::SearchResult onset_j3 = search::cross_entropy_search(
      onset_space, onset_fn, spec.to_options(3), &search_metrics);
  const bool jobs_invariant = onset.log() == onset_j3.log();
  expected_evaluations += 2 * spec.population * spec.generations *
                          spec.restarts;

  double onset_lo = 0.0, onset_hi = 0.0;
  const bool bracketed = onset_bracket(onset, eta_axis, onset_lo, onset_hi);
  const double width = onset_hi - onset_lo;

  TextTable onset_table({"restart", "last gen elite best eta",
                         "finite evals"});
  onset_table.set_title("\nonset hunt, per-restart convergence");
  for (const search::GenerationStat& g : onset.generations) {
    if (g.generation != spec.generations - 1) continue;
    onset_table.add_row({std::to_string(g.restart),
                         fmt(search::kOnsetBase - g.elite_best, 6),
                         std::to_string(g.finite)});
  }
  onset_table.print(out);
  out << "onset bracket: eta in [" << fmt(onset_lo, 6) << ", "
      << fmt(onset_hi, 6) << "], width " << fmt(width, 6) << " ("
      << onset.evaluations.size() << " evaluations, "
      << onset.nan_evaluations << " unscored)\n"
      << "evaluation log byte-identical across fan-outs (--jobs 3 "
         "cross-check): "
      << fmt_bool(jobs_invariant) << "\n";

  ctx.claims.check_true(
      {"E19", "onset_bracket_resolved"},
      "The CEM hunt over the committed spec samples both sides of the "
      "stability boundary (the bracket exists)",
      bracketed && onset.found());
  ctx.claims.check_at_most(
      {"E19", "onset_bracket_contains_sqrt2_below"},
      "The largest spectrally stable gain the hunt sampled sits at or below "
      "the theoretical onset eta* = sqrt(2)",
      onset_lo, kSqrt2);
  ctx.claims.check_at_least(
      {"E19", "onset_bracket_contains_sqrt2_above"},
      "The smallest spectrally unstable gain the hunt sampled sits at or "
      "above the theoretical onset eta* = sqrt(2)",
      onset_hi, kSqrt2);
  ctx.claims.check_at_most(
      {"E19", "onset_bracket_beats_e5_grid"},
      "The searched onset bracket is strictly tighter than E5's 0.0025 "
      "bifurcation-grid step -- at most a fifth of it",
      width, kE5GridStep / 5.0);
  ctx.claims.check_true(
      {"E19", "onset_search_jobs_invariant"},
      "The full onset-hunt evaluation log (every candidate, seed, and "
      "fitness) is byte-identical at the configured --jobs and at a fixed "
      "cross-check fan-out of 3",
      jobs_invariant);

  // ---- 2. adversarial impairment vs the E13b grid --------------------------
  // Re-run E13b's individual + Fair Share cells byte-exactly: same grid,
  // same world, same derive_task_seed(1990, cell) seeds.
  exec::ParamGrid e13_grid;
  e13_grid.axis("discipline", {0.0, 1.0})
      .axis("style", {0.0, 1.0})
      .axis("loss", {0.0, 0.25, 0.5})
      .axis("delay", {0.0, 3.0});

  TextTable grid_table({"loss", "stale", "shortfall"});
  grid_table.set_title(
      "\nE13b individual + Fair Share grid cells, re-run byte-exactly");
  double grid_worst = 0.0;
  for (std::size_t idx = 0; idx < e13_grid.size(); ++idx) {
    const auto p = e13_grid.point(idx);
    if (p.get("discipline") == 0.0 || p.get("style") == 0.0) continue;
    faults::FaultPlan plan;
    plan.signal_loss_prob = p.get("loss");
    plan.signal_delay_epochs = static_cast<std::size_t>(p.get("delay"));
    const double shortfall =
        impairment_shortfall(true, true, plan,
                             exec::derive_task_seed(kE13Seed, idx),
                             search_metrics);
    grid_worst = std::max(grid_worst, shortfall);
    grid_table.add_row({fmt(p.get("loss"), 2), fmt(p.get("delay"), 0),
                        fmt(shortfall, 4)});
  }
  grid_table.print(out);

  const double floor_timid = kBetaTimid * kMu / static_cast<double>(kN);
  out << "grid worst shortfall " << fmt(grid_worst, 4) << " vs floor "
      << fmt(floor_timid, 4) << "\n";

  // The hunt searches where the grid never looked: continuous loss up to
  // 0.9, signal duplication, staleness to six epochs.
  const search::SearchSpace imp_space = impairment_space();
  search::SearchOptions imp_options;
  imp_options.population = 12;
  imp_options.elite = 3;
  imp_options.generations = 6;
  imp_options.restarts = 2;
  imp_options.sigma_floor = 0.01;
  imp_options.exec.jobs = ctx.sweep.jobs;
  imp_options.exec.base_seed =
      exec::derive_task_seed(ctx.sweep.base_seed, 100);
  const search::FitnessFn imp_fn = impairment_fitness_fn(true, true);
  const search::SearchResult imp_cem =
      search::cross_entropy_search(imp_space, imp_fn, imp_options,
                                   &search_metrics);
  expected_evaluations += imp_options.population * imp_options.generations *
                          imp_options.restarts;

  search::TreeOptions tree_options;
  tree_options.rounds = 8;
  tree_options.rollouts = 3;
  tree_options.exec.jobs = ctx.sweep.jobs;
  tree_options.exec.base_seed =
      exec::derive_task_seed(ctx.sweep.base_seed, 101);
  const search::SearchResult imp_tree = search::tree_search(
      imp_space, imp_fn, tree_options, &imp_cem.best, &search_metrics);
  expected_evaluations += tree_options.rounds * tree_options.rollouts;

  const bool tree_won =
      imp_tree.found() && imp_tree.best_fitness > imp_cem.best_fitness;
  const search::SearchResult& imp_best = tree_won ? imp_tree : imp_cem;

  out << "\nsearched impairment (CEM " << imp_cem.evaluations.size()
      << " evals + tree " << imp_tree.evaluations.size() << " rollouts):\n"
      << "  CEM best shortfall " << fmt(imp_cem.best_fitness, 4)
      << ", tree best " << fmt(imp_tree.best_fitness, 4) << "\n"
      << "  worst plan: loss " << fmt(imp_best.best[0], 4) << ", dup "
      << fmt(imp_best.best[1], 4) << ", stale "
      << fmt(imp_best.best[2], 0) << " epochs -> shortfall "
      << fmt(imp_best.best_fitness, 4) << "\n";

  ctx.claims.check_at_most(
      {"E19", "e13_grid_cells_reproduced"},
      "The re-run E13b individual + Fair Share cells reproduce graceful "
      "degradation: worst grid shortfall within half the reservation floor "
      "(E13b.graceful_degradation)",
      grid_worst, 0.5 * floor_timid);
  ctx.claims
      .check_at_least(
          {"E19", "searched_impairment_beats_grid"},
          "The searched worst-case impairment meets or beats the worst cell "
          "of E13b's fixed grid -- search dominates sweep on the same world",
          imp_best.best_fitness, grid_worst)
      .annotate_metrics(search_metrics, "faults.");
  ctx.claims.check_at_least(
      {"E19", "searched_impairment_breaks_graceful_verdict"},
      "On the extended impairment space (duplication and deeper staleness, "
      "axes the grid never probed) the search finds a plan costing a timid "
      "source over half its reservation floor -- past the very threshold "
      "E13b's grid certified as graceful",
      imp_best.best_fitness, 0.5 * floor_timid);

  // ---- 3. the atlas --------------------------------------------------------
  // Four discipline x feedback cells; per cell a small onset hunt (N = 32,
  // dense spectral path) and a small impairment hunt.
  const std::size_t atlas_n = 32;
  struct AtlasCell {
    bool fair_share;
    bool individual;
    double lo = 0.0, hi = 0.0;
    bool bracketed = false;
    std::vector<double> worst_plan;
    double worst_shortfall = 0.0;
    bool found = false;
  };
  std::vector<AtlasCell> cells(4);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].fair_share = c >= 2;
    cells[c].individual = (c % 2) == 1;
  }

  search::SearchSpace atlas_eta_space;
  atlas_eta_space.continuous("eta", 1.0, 2.0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    AtlasCell& cell = cells[c];

    search::SearchOptions eta_opts;
    eta_opts.population = 10;
    eta_opts.elite = 3;
    eta_opts.generations = 6;
    eta_opts.restarts = 1;
    eta_opts.exec.jobs = ctx.sweep.jobs;
    eta_opts.exec.base_seed =
        exec::derive_task_seed(ctx.sweep.base_seed, 200 + c);
    const search::SearchResult cell_onset = search::cross_entropy_search(
        atlas_eta_space,
        onset_fitness_fn(atlas_n, spec.beta,
                         std::string(discipline_token(cell.fair_share)),
                         style_of(cell.individual), 0),
        eta_opts, &search_metrics);
    expected_evaluations +=
        eta_opts.population * eta_opts.generations * eta_opts.restarts;
    cell.bracketed = onset_bracket(cell_onset, 0, cell.lo, cell.hi);

    search::SearchOptions cell_imp_opts;
    cell_imp_opts.population = 8;
    cell_imp_opts.elite = 2;
    cell_imp_opts.generations = 4;
    cell_imp_opts.restarts = 1;
    cell_imp_opts.sigma_floor = 0.01;
    cell_imp_opts.exec.jobs = ctx.sweep.jobs;
    cell_imp_opts.exec.base_seed =
        exec::derive_task_seed(ctx.sweep.base_seed, 300 + c);
    const search::SearchResult cell_imp = search::cross_entropy_search(
        moderate_impairment_space(),
        impairment_fitness_fn(cell.fair_share, cell.individual),
        cell_imp_opts, &search_metrics);
    expected_evaluations += cell_imp_opts.population *
                            cell_imp_opts.generations *
                            cell_imp_opts.restarts;
    cell.found = cell_imp.found();
    if (cell.found) {
      cell.worst_plan = cell_imp.best;
      cell.worst_shortfall = cell_imp.best_fitness;
    }
  }

  // The atlas block: identical bytes go to stdout here and into the
  // REPRODUCTION.md appendix; tools/check_docs.py --atlas-check extracts
  // the sentinel span from both and byte-compares.
  std::ostringstream atlas;
  atlas << "<!-- atlas:begin -->\n"
        << "### Stability-region atlas: discipline x adversarial "
           "impairment\n\n"
        << "Spectral onset brackets hunted at N = " << atlas_n
        << " (dense path, eta in [1, 2], beta = " << fmt(spec.beta, 2)
        << "); adversarial fault plans hunted over E13b's moderate "
           "impairment envelope (loss in [0, 0.5], duplication in [0, 0.1], "
           "staleness in {0..3} epochs) on the E13b world. The onset is "
           "discipline-blind; the impairment response is not.\n\n";
  report::MarkdownTable atlas_table(
      {"discipline", "feedback", "onset bracket (eta)", "bracket width",
       "adversarial plan (loss/dup/stale)", "worst shortfall",
       "floor guarantee (<= 50%)"});
  for (const AtlasCell& cell : cells) {
    std::string bracket_cell = "unresolved";
    std::string width_cell = "-";
    if (cell.bracketed) {
      bracket_cell = "[" + fmt(cell.lo, 6) + ", " + fmt(cell.hi, 6) + "]";
      width_cell = fmt(cell.hi - cell.lo, 6);
    }
    std::string plan_cell = "-";
    std::string shortfall_cell = "-";
    std::string verdict_cell = "-";
    if (cell.found) {
      plan_cell = fmt(cell.worst_plan[0], 2) + " / " +
                  fmt(cell.worst_plan[1], 2) + " / " +
                  fmt(cell.worst_plan[2], 0);
      shortfall_cell = fmt(cell.worst_shortfall, 4);
      verdict_cell =
          cell.worst_shortfall <= 0.5 * floor_timid ? "holds" : "breaks";
    }
    atlas_table.add_row({cell.fair_share ? "FairShare" : "FIFO",
                         cell.individual ? "individual" : "aggregate",
                         bracket_cell, width_cell, plan_cell, shortfall_cell,
                         verdict_cell});
  }
  atlas_table.print(atlas);
  atlas << "<!-- atlas:end -->\n";
  ctx.appendix = atlas.str();
  out << "\n" << ctx.appendix;

  bool all_resolved = true;
  bool all_contain_sqrt2 = true;
  for (const AtlasCell& cell : cells) {
    all_resolved = all_resolved && cell.bracketed && cell.found;
    all_contain_sqrt2 = all_contain_sqrt2 && cell.bracketed &&
                        cell.lo <= kSqrt2 && cell.hi >= kSqrt2;
  }
  const AtlasCell& fifo_agg = cells[0];
  const AtlasCell& fs_ind = cells[3];

  ctx.claims.check_true(
      {"E19", "atlas_all_cells_resolved"},
      "Every atlas cell resolves both hunts: an onset bracket and a "
      "scoreable adversarial fault plan",
      all_resolved);
  ctx.claims.check_true(
      {"E19", "atlas_onset_discipline_blind"},
      "All four discipline x feedback cells bracket the SAME spectral onset "
      "eta* = sqrt(2): the symmetric fixed point feeds every discipline an "
      "identical signal",
      all_contain_sqrt2);
  ctx.claims.check_at_least(
      {"E19", "atlas_fifo_starves_worse_than_fair_share"},
      "Under each cell's searched worst-case impairment, FIFO + aggregate "
      "still starves the timid sources harder than Fair Share + individual "
      "-- Theorem 5's ordering survives the adversary",
      fifo_agg.worst_shortfall, fs_ind.worst_shortfall);

  // ---- search budget accounting --------------------------------------------
  const std::uint64_t logged_evaluations =
      search_metrics.counter("search.evaluations");
  out << "search.evaluations = " << logged_evaluations << " (expected "
      << expected_evaluations << ")\n";
  ctx.claims.check_close(
      {"E19", "search_budget_exact"},
      "The derandomized hunts spend exactly their configured evaluation "
      "budget -- every candidate is logged, none run off the books",
      static_cast<double>(logged_evaluations),
      static_cast<double>(expected_evaluations), 0.0);

  if (!ctx.metrics_out.empty()) {
    exec::SweepManifest manifest;
    manifest.base_seed = ctx.sweep.base_seed;
    manifest.merged = search_metrics;
    if (!exec::write_manifest(manifest, ctx.metrics_out)) {
      ctx.io_error = true;
      return;
    }
  }

  out << "\nE19 (adversarial chaos atlas) reproduced: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
