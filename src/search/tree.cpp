#include "search/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "exec/param_grid.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace ffc::search {

namespace {

// Same stream salt as cem.cpp: keeps the driver-side rollout sampler off
// the per-candidate oracle seed indices 0..rollouts-1.
constexpr std::uint64_t kSampleStream = std::uint64_t{1} << 32;

/// One tree node. Level l nodes choose a value for the l-th discrete axis;
/// nodes below the last discrete axis are leaves. Children are materialized
/// lazily so huge product spaces only pay for the paths actually walked.
struct Node {
  std::size_t visits = 0;
  double reward_sum = 0.0;  ///< sum of normalized rewards backed up here
  std::vector<std::unique_ptr<Node>> children;
};

void validate_options(const TreeOptions& options) {
  if (options.rounds == 0 || options.rollouts == 0) {
    throw std::invalid_argument("tree rounds and rollouts must be >= 1");
  }
  if (!std::isfinite(options.exploration) || options.exploration < 0.0) {
    throw std::invalid_argument(
        "tree exploration constant must be finite and >= 0");
  }
  if (!std::isfinite(options.rollout_sigma) || options.rollout_sigma <= 0.0) {
    throw std::invalid_argument("tree rollout sigma must be positive");
  }
}

/// Walks root-to-leaf by UCB1, appending the chosen child index per level.
/// Unvisited children win immediately in value order; among visited
/// children ties break toward the lower index (strict > comparison).
std::vector<std::size_t> select_path(
    Node& root, const std::vector<const SearchAxis*>& levels,
    double exploration) {
  std::vector<std::size_t> path;
  path.reserve(levels.size());
  Node* node = &root;
  for (const SearchAxis* axis : levels) {
    if (node->children.empty()) {
      node->children.resize(axis->values.size());
    }
    std::size_t pick = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < node->children.size(); ++k) {
      const Node* child = node->children[k].get();
      if (child == nullptr || child->visits == 0) {
        pick = k;
        break;
      }
      const double mean =
          child->reward_sum / static_cast<double>(child->visits);
      const double bonus =
          exploration *
          std::sqrt(std::log(static_cast<double>(node->visits) + 1.0) /
                    static_cast<double>(child->visits));
      const double score = mean + bonus;
      if (score > best_score) {
        best_score = score;
        pick = k;
      }
    }
    if (node->children[pick] == nullptr) {
      node->children[pick] = std::make_unique<Node>();
    }
    node = node->children[pick].get();
    path.push_back(pick);
  }
  return path;
}

}  // namespace

SearchResult tree_search(const SearchSpace& space, const FitnessFn& fn,
                         const TreeOptions& options,
                         const std::vector<double>* center,
                         obs::MetricRegistry* metrics) {
  validate_options(options);
  if (!fn) {
    throw std::invalid_argument("search fitness functional is empty");
  }
  std::vector<const SearchAxis*> levels;       // discrete axes, tree order
  std::vector<std::size_t> level_axis_index;   // their SearchSpace indices
  for (std::size_t a = 0; a < space.num_axes(); ++a) {
    if (space.axis_at(a).discrete) {
      levels.push_back(&space.axis_at(a));
      level_axis_index.push_back(a);
    }
  }
  if (levels.empty()) {
    throw std::invalid_argument(
        "tree_search needs at least one discrete axis; use "
        "cross_entropy_search for all-continuous spaces");
  }
  if (center != nullptr) {
    if (center->size() != space.num_axes()) {
      throw std::invalid_argument("tree rollout center has wrong arity");
    }
    if (!space.contains(*center)) {
      throw std::invalid_argument(
          "tree rollout center lies outside the search space");
    }
  }

  SearchResult result;
  result.best_fitness = std::nan("");
  result.best_index = std::numeric_limits<std::size_t>::max();

  exec::ParamGrid rollout_grid;
  rollout_grid.axis("rollout",
                    exec::ParamGrid::linspace(
                        0.0, static_cast<double>(options.rollouts - 1),
                        options.rollouts));

  Node root;
  obs::MetricRegistry oracle_metrics;
  std::size_t eval_counter = 0;
  double elite_high_water = std::nan("");
  double fit_min = std::numeric_limits<double>::infinity();
  double fit_max = -std::numeric_limits<double>::infinity();

  for (std::size_t round = 0; round < options.rounds; ++round) {
    const std::uint64_t round_seed =
        exec::derive_task_seed(options.exec.base_seed, round);
    const std::vector<std::size_t> path =
        select_path(root, levels, options.exploration);

    // Rollout candidates: the leaf's discrete assignment plus continuous
    // draws, sampled on the driver thread (determinism: cem.cpp).
    stats::Xoshiro256 sampler(
        exec::derive_task_seed(round_seed, kSampleStream));
    std::vector<std::vector<double>> candidates;
    candidates.reserve(options.rollouts);
    for (std::size_t j = 0; j < options.rollouts; ++j) {
      std::vector<double> candidate(space.num_axes(), 0.0);
      for (std::size_t l = 0; l < levels.size(); ++l) {
        candidate[level_axis_index[l]] = levels[l]->values[path[l]];
      }
      for (std::size_t a = 0; a < space.num_axes(); ++a) {
        const SearchAxis& axis = space.axis_at(a);
        if (axis.discrete) continue;
        if (center != nullptr) {
          candidate[a] = (*center)[a] +
                         options.rollout_sigma * axis.span() * sampler.normal();
        } else {
          candidate[a] = sampler.uniform(axis.lo, axis.hi);
        }
      }
      space.clamp(candidate);
      candidates.push_back(std::move(candidate));
    }

    exec::SweepOptions sweep;
    sweep.jobs = options.exec.jobs;
    sweep.base_seed = round_seed;
    exec::SweepRunner runner(sweep);
    const auto fitnesses = runner.run(
        rollout_grid,
        [&](const exec::GridPoint& p, std::uint64_t seed,
            obs::MetricRegistry& candidate_metrics) -> double {
          return fn(candidates[p.index()], seed, candidate_metrics);
        });
    oracle_metrics.merge(runner.last_manifest().merged);

    GenerationStat stat;
    stat.restart = 0;
    stat.generation = round;
    stat.elite_best = std::nan("");
    stat.elite_mean = std::nan("");
    double finite_sum = 0.0;
    for (std::size_t j = 0; j < options.rollouts; ++j) {
      Evaluation e;
      e.index = eval_counter++;
      e.restart = 0;
      e.generation = round;
      e.candidate = candidates[j];
      e.seed = exec::derive_task_seed(round_seed, j);
      e.fitness = fitnesses[j];
      if (std::isnan(e.fitness)) {
        ++result.nan_evaluations;
      } else {
        ++stat.finite;
        finite_sum += e.fitness;
        fit_min = std::min(fit_min, e.fitness);
        fit_max = std::max(fit_max, e.fitness);
        if (std::isnan(stat.elite_best) || e.fitness > stat.elite_best) {
          stat.elite_best = e.fitness;
        }
        if (!result.found() || e.fitness > result.best_fitness) {
          result.best = e.candidate;
          result.best_fitness = e.fitness;
          result.best_index = e.index;
        }
      }
      result.evaluations.push_back(std::move(e));
    }
    if (stat.finite > 0) {
      stat.elite_mean = finite_sum / static_cast<double>(stat.finite);
      if (std::isnan(elite_high_water) ||
          stat.elite_best > elite_high_water) {
        elite_high_water = stat.elite_best;
      }
    }
    result.generations.push_back(stat);

    // Backpropagation. Rewards normalize to the running [min, max] span;
    // NaN rollouts back up the worst reward (0) so unscorable regions are
    // actively discouraged rather than silently skipped.
    const double span = fit_max - fit_min;
    for (std::size_t j = 0; j < options.rollouts; ++j) {
      const double f = fitnesses[j];
      double reward = 0.0;
      if (!std::isnan(f)) {
        reward = span > 0.0 ? (f - fit_min) / span : 1.0;
      }
      Node* node = &root;
      ++node->visits;
      node->reward_sum += reward;
      for (std::size_t l = 0; l < path.size(); ++l) {
        node = node->children[path[l]].get();
        ++node->visits;
        node->reward_sum += reward;
      }
    }
  }

  if (metrics != nullptr) {
    metrics->add("search.evaluations", result.evaluations.size());
    metrics->add("search.tree_rounds", options.rounds);
    metrics->add("search.nan_fitness", result.nan_evaluations);
    if (!std::isnan(elite_high_water)) {
      metrics->set_gauge("search.elite_fitness_high_water",
                         elite_high_water);
    }
    metrics->merge(oracle_metrics);
  }
  return result;
}

}  // namespace ffc::search
