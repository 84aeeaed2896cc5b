#include "search/cem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "exec/ini.hpp"
#include "exec/param_grid.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace ffc::search {

namespace {

// Stream salts: distinct derive_task_seed() indices so the sampling RNG of
// a generation, the restart-initialization RNG, and the per-candidate
// oracle seeds (indices 0..population-1) can never collide. Candidate
// populations are far below 2^32, so indices >= 2^32 are free.
constexpr std::uint64_t kSampleStream = std::uint64_t{1} << 32;
constexpr std::uint64_t kRestartStream = (std::uint64_t{1} << 32) + 1;

/// Every NaN prints as "nan", whatever its sign bit.
std::string format_number(double v) {
  return std::isnan(v) ? "nan" : exec::format_double(v);
}

/// The per-axis sampling distribution the CEM loop refits.
struct Distribution {
  // Continuous axes: independent Gaussians.
  std::vector<double> mean;
  std::vector<double> sigma;
  // Discrete axes: one categorical per axis (empty for continuous axes).
  std::vector<std::vector<double>> probs;
};

Distribution initial_distribution(const SearchSpace& space,
                                  const SearchOptions& options,
                                  std::size_t restart,
                                  std::uint64_t restart_seed) {
  Distribution dist;
  const std::size_t n = space.num_axes();
  dist.mean.resize(n, 0.0);
  dist.sigma.resize(n, 0.0);
  dist.probs.resize(n);
  // Restart 0 starts from the domain center; later restarts draw their
  // center from the restart stream, so each restart explores a fresh basin
  // while remaining a pure function of (master seed, restart index).
  stats::Xoshiro256 rng(
      exec::derive_task_seed(restart_seed, kRestartStream));
  for (std::size_t a = 0; a < n; ++a) {
    const SearchAxis& axis = space.axis_at(a);
    if (axis.discrete) {
      dist.probs[a].assign(axis.values.size(),
                           1.0 / static_cast<double>(axis.values.size()));
      // Consume one draw on later restarts to decorrelate the continuous
      // centers drawn after this axis across spaces that share a prefix.
      if (restart > 0) (void)rng.uniform01();
      continue;
    }
    dist.mean[a] = restart == 0 ? 0.5 * (axis.lo + axis.hi)
                                : rng.uniform(axis.lo, axis.hi);
    dist.sigma[a] = options.initial_sigma * axis.span();
  }
  return dist;
}

std::vector<double> sample_candidate(const SearchSpace& space,
                                     const Distribution& dist,
                                     stats::Xoshiro256& rng) {
  std::vector<double> candidate(space.num_axes(), 0.0);
  for (std::size_t a = 0; a < space.num_axes(); ++a) {
    const SearchAxis& axis = space.axis_at(a);
    if (axis.discrete) {
      const double u = rng.uniform01();
      double cumulative = 0.0;
      std::size_t pick = axis.values.size() - 1;
      for (std::size_t k = 0; k < dist.probs[a].size(); ++k) {
        cumulative += dist.probs[a][k];
        if (u < cumulative) {
          pick = k;
          break;
        }
      }
      candidate[a] = axis.values[pick];
    } else {
      candidate[a] = dist.mean[a] + dist.sigma[a] * rng.normal();
    }
  }
  space.clamp(candidate);
  return candidate;
}

/// Refits the distribution to the elite candidates (smoothed), keeping
/// sigma above the floor and discrete probabilities above the
/// probability floor (renormalized).
void refit(const SearchSpace& space, const SearchOptions& options,
           const std::vector<const Evaluation*>& elites, Distribution& dist) {
  const double s = options.smoothing;
  const double k = static_cast<double>(elites.size());
  for (std::size_t a = 0; a < space.num_axes(); ++a) {
    const SearchAxis& axis = space.axis_at(a);
    if (axis.discrete) {
      std::vector<double> freq(axis.values.size(), 0.0);
      for (const Evaluation* e : elites) {
        const auto it = std::find(axis.values.begin(), axis.values.end(),
                                  e->candidate[a]);
        freq[static_cast<std::size_t>(it - axis.values.begin())] += 1.0 / k;
      }
      double total = 0.0;
      for (std::size_t v = 0; v < freq.size(); ++v) {
        double p = (1.0 - s) * dist.probs[a][v] + s * freq[v];
        p = std::max(p, options.probability_floor);
        dist.probs[a][v] = p;
        total += p;
      }
      for (double& p : dist.probs[a]) p /= total;
      continue;
    }
    double mean = 0.0;
    for (const Evaluation* e : elites) mean += e->candidate[a];
    mean /= k;
    // Spread is measured around the PRE-update mean: when the elites sit
    // far from the current distribution the refit sigma absorbs the shift
    // (sqrt(std^2 + shift^2)), so a moving distribution keeps an
    // exploration radius of the order of its own motion instead of
    // collapsing onto the first elite cluster it finds.
    double var = 0.0;
    for (const Evaluation* e : elites) {
      const double d = e->candidate[a] - dist.mean[a];
      var += d * d;
    }
    const double stddev = std::sqrt(var / k);
    dist.mean[a] = (1.0 - s) * dist.mean[a] + s * mean;
    dist.sigma[a] = std::max(options.sigma_floor * axis.span(),
                             (1.0 - s) * dist.sigma[a] + s * stddev);
  }
}

void validate_options(const SearchOptions& options) {
  if (options.population < 2) {
    throw std::invalid_argument("search population must be >= 2");
  }
  if (options.elite < 1 || options.elite >= options.population) {
    throw std::invalid_argument(
        "search elite count must be in [1, population)");
  }
  if (options.generations == 0 || options.restarts == 0) {
    throw std::invalid_argument(
        "search generations and restarts must be >= 1");
  }
  const auto bad_fraction = [](double v) {
    return !std::isfinite(v) || v <= 0.0;
  };
  if (bad_fraction(options.initial_sigma) ||
      bad_fraction(options.sigma_floor) ||
      options.sigma_floor > options.initial_sigma) {
    throw std::invalid_argument(
        "search sigmas must be finite, positive, floor <= initial");
  }
  if (!std::isfinite(options.smoothing) || options.smoothing <= 0.0 ||
      options.smoothing > 1.0) {
    throw std::invalid_argument("search smoothing must be in (0, 1]");
  }
  if (!std::isfinite(options.probability_floor) ||
      options.probability_floor < 0.0 || options.probability_floor >= 1.0) {
    throw std::invalid_argument(
        "search probability floor must be in [0, 1)");
  }
}

}  // namespace

bool SearchResult::found() const {
  return best_index != std::numeric_limits<std::size_t>::max();
}

std::string SearchResult::log() const {
  std::string out;
  for (const Evaluation& e : evaluations) {
    out += std::to_string(e.index);
    out += ' ';
    out += std::to_string(e.restart);
    out += ' ';
    out += std::to_string(e.generation);
    out += ' ';
    out += std::to_string(e.seed);
    out += ' ';
    out += format_number(e.fitness);
    for (double v : e.candidate) {
      out += ' ';
      out += format_number(v);
    }
    out += '\n';
  }
  return out;
}

SearchResult cross_entropy_search(const SearchSpace& space,
                                  const FitnessFn& fn,
                                  const SearchOptions& options,
                                  obs::MetricRegistry* metrics) {
  validate_options(options);
  if (space.num_axes() == 0) {
    throw std::invalid_argument("search space has no axes");
  }
  if (!fn) {
    throw std::invalid_argument("search fitness functional is empty");
  }

  SearchResult result;
  result.best_fitness = std::nan("");
  result.best_index = std::numeric_limits<std::size_t>::max();

  exec::ParamGrid population_grid;
  population_grid.axis(
      "candidate",
      exec::ParamGrid::linspace(
          0.0, static_cast<double>(options.population - 1),
          options.population));

  obs::MetricRegistry oracle_metrics;  // merged per-candidate registries
  std::size_t eval_counter = 0;
  double elite_high_water = std::nan("");

  for (std::size_t r = 0; r < options.restarts; ++r) {
    const std::uint64_t restart_seed =
        exec::derive_task_seed(options.exec.base_seed, r);
    Distribution dist = initial_distribution(space, options, r, restart_seed);

    for (std::size_t g = 0; g < options.generations; ++g) {
      const std::uint64_t gen_seed = exec::derive_task_seed(restart_seed, g);

      // Sampling happens here, on the driver thread, before any fan-out:
      // the candidate list is a pure function of (space, options, seeds).
      stats::Xoshiro256 sampler(
          exec::derive_task_seed(gen_seed, kSampleStream));
      std::vector<std::vector<double>> candidates;
      candidates.reserve(options.population);
      for (std::size_t j = 0; j < options.population; ++j) {
        candidates.push_back(sample_candidate(space, dist, sampler));
      }

      // Evaluation fans out; candidate j's oracle seed is
      // derive_task_seed(gen_seed, j) by SweepRunner's own contract.
      exec::SweepOptions sweep;
      sweep.jobs = options.exec.jobs;
      sweep.base_seed = gen_seed;
      exec::SweepRunner runner(sweep);
      const auto fitnesses = runner.run(
          population_grid,
          [&](const exec::GridPoint& p, std::uint64_t seed,
              obs::MetricRegistry& candidate_metrics) -> double {
            return fn(candidates[p.index()], seed, candidate_metrics);
          });
      oracle_metrics.merge(runner.last_manifest().merged);

      // Log the generation in candidate order.
      const std::size_t generation_base = eval_counter;
      for (std::size_t j = 0; j < options.population; ++j) {
        Evaluation e;
        e.index = eval_counter++;
        e.restart = r;
        e.generation = g;
        e.candidate = candidates[j];
        e.seed = exec::derive_task_seed(gen_seed, j);
        e.fitness = fitnesses[j];
        if (std::isnan(e.fitness)) ++result.nan_evaluations;
        result.evaluations.push_back(std::move(e));
      }

      // Elite selection: finite fitness only, (fitness DESC, index ASC).
      std::vector<const Evaluation*> elites;
      for (std::size_t j = 0; j < options.population; ++j) {
        const Evaluation& e = result.evaluations[generation_base + j];
        if (!std::isnan(e.fitness)) elites.push_back(&e);
      }
      std::stable_sort(elites.begin(), elites.end(),
                       [](const Evaluation* a, const Evaluation* b) {
                         return a->fitness > b->fitness;
                       });
      GenerationStat stat;
      stat.restart = r;
      stat.generation = g;
      stat.finite = elites.size();
      if (elites.size() > options.elite) elites.resize(options.elite);
      if (elites.empty()) {
        // A fully unscored generation leaves the distribution untouched.
        stat.elite_best = std::nan("");
        stat.elite_mean = std::nan("");
        result.generations.push_back(stat);
        continue;
      }
      stat.elite_best = elites.front()->fitness;
      stat.elite_mean =
          std::accumulate(elites.begin(), elites.end(), 0.0,
                          [](double acc, const Evaluation* e) {
                            return acc + e->fitness;
                          }) /
          static_cast<double>(elites.size());
      result.generations.push_back(stat);
      if (std::isnan(elite_high_water) ||
          stat.elite_best > elite_high_water) {
        elite_high_water = stat.elite_best;
      }

      // Incumbent update: strictly greater only, so ties keep the earliest
      // evaluation (restart/elite tie-breaking contract).
      const Evaluation& champion = *elites.front();
      if (!result.found() || champion.fitness > result.best_fitness) {
        result.best = champion.candidate;
        result.best_fitness = champion.fitness;
        result.best_index = champion.index;
      }

      refit(space, options, elites, dist);
    }
  }

  if (metrics != nullptr) {
    metrics->add("search.evaluations", result.evaluations.size());
    metrics->add("search.generations",
                 options.restarts * options.generations);
    metrics->add("search.restarts", options.restarts);
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
