// Declarative hunt specs: the INI grammar behind scenarios/chaos_hunt.ini.
//
// A hunt spec names a fitness functional, the oracle family it is scored
// against, the CEM/tree budgets, and the search axes -- everything a
// reproduction needs to re-run the exact same adversarial search. The
// grammar (docs/SEARCH.md "Search-space grammar"):
//
//   [hunt]        name, description?, seed?, fitness, onset_axis?,
//                 population?, elite?, generations?, restarts?,
//                 initial_sigma?, sigma_floor?, tree_iterations?
//   [oracle]      connections, beta, discipline?, feedback?
//   [continuous]  <axis> = lo, hi            (one axis per key, in order)
//   [discrete]    <axis> = v1, v2, ...       (strictly increasing values)
//
// Parsing goes through the shared INI front end (exec/ini.hpp), strict as
// scenario/spec.hpp is: unknown sections/keys, duplicate keys, malformed
// numbers, and cross-key inconsistencies (an onset_axis that is not a
// declared continuous axis, tree_iterations without a discrete axis) all
// fail with file:line diagnostics. dump() emits the canonical form;
// parse(dump(s)) == dump(s) is a fixed point pinned by tests/test_search.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/ini.hpp"
#include "search/cem.hpp"
#include "search/fitness.hpp"
#include "search/space.hpp"
#include "search/tree.hpp"

namespace ffc::search {

/// Parse or validation failure; what() carries file:line: message.
using HuntError = exec::ConfigError;

/// One axis as declared in the spec file (continuous and discrete axes
/// keep their own declaration order; the SearchSpace lists continuous
/// axes first, then discrete ones, matching dump()).
struct HuntAxis {
  std::string name;
  bool discrete = false;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<double> values;
};

/// The parsed, validated spec.
struct HuntSpec {
  std::string name;
  std::string description;
  std::uint64_t seed = 0;
  FitnessKind fitness = FitnessKind::SpectralRadius;
  std::string onset_axis;  ///< set iff fitness == EarliestOnset

  // CEM budgets (defaults = SearchOptions defaults).
  std::size_t population = 24;
  std::size_t elite = 6;
  std::size_t generations = 8;
  std::size_t restarts = 2;
  double initial_sigma = 0.25;
  double sigma_floor = 1e-3;
  /// Tree-refinement rounds after the CEM pass; 0 disables refinement.
  std::size_t tree_iterations = 0;

  // Oracle family the fitness functional instantiates.
  std::size_t connections = 0;
  double beta = 0.5;
  std::string discipline = "fifo";      ///< fifo | fair_share | processor_sharing
  std::string feedback = "aggregate";   ///< aggregate | individual

  std::vector<HuntAxis> axes;  ///< continuous first, then discrete

  /// Materializes the SearchSpace (axes in `axes` order).
  SearchSpace to_space() const;

  /// CEM options with this spec's budgets; exec.base_seed = seed, and
  /// exec.jobs from the argument.
  SearchOptions to_options(std::size_t jobs) const;

  /// Tree options (rounds = tree_iterations); call only when
  /// tree_iterations > 0.
  TreeOptions to_tree_options(std::size_t jobs) const;

  /// Canonical INI text. parse_hunt(dump()) reproduces this spec and
  /// dumps byte-identically.
  std::string dump() const;
};

/// Parses and validates `text`; `filename` labels diagnostics.
HuntSpec parse_hunt(std::string_view text, std::string_view filename);

/// Reads and parses a spec file. Throws HuntError if unreadable.
HuntSpec load_hunt_file(const std::string& path);

}  // namespace ffc::search
