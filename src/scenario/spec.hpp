// Declarative scenario descriptions: protocol x discipline x feedback x
// topology x fault grids as data, not code (ROADMAP item 3; grammar and
// examples in docs/PROTOCOLS.md).
//
// A ScenarioSpec is parsed from a small INI-style config file through the
// shared front end (exec/ini.hpp):
//
//   [scenario]            name / description / seed
//   [topology]            kind + its size/rate keys
//   [model]               fixed categorical choices (protocol, discipline,
//                         feedback, signal)
//   [params]              fixed numeric parameters (eta, beta, ...)
//   [grid]                swept axes: categorical dimensions get token
//                         lists, anything else gets numeric lists
//   [faults]              feedback-path impairment fields
//
// Parsing is STRICT: unknown sections/keys, duplicates, malformed numbers,
// out-of-domain values, keys both fixed and swept, and grids of more than
// SIZE_MAX cells throw ScenarioError with a file:line message. dump() emits
// the canonical form (fixed section and key order, shortest round-trip
// numbers); parse(dump(s)) dumps byte-identically, which the
// scenario_roundtrip ctest entries pin for every committed scenarios/*.ini.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/ini.hpp"

namespace ffc::scenario {

/// Parse/validation failure; .what() carries "<file>:<line>: <problem>".
using ScenarioError = exec::ConfigError;

/// One [grid] axis. Categorical axes (name is one of the [model] dimension
/// keys) carry token labels; numeric axes carry double values.
struct ScenarioAxis {
  std::string name;
  bool categorical = false;
  std::vector<std::string> labels;  ///< categorical only
  std::vector<double> values;       ///< numeric only
};

/// A parsed scenario file. Stores exactly what the file said (defaults are
/// applied by ScenarioGrid at materialization, not injected here, so dump()
/// reproduces the author's intent rather than an expanded form).
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::uint64_t seed = 1;

  std::string topology_kind;
  /// Fixed [topology] keys except `kind`, in canonical order.
  std::vector<std::pair<std::string, double>> topology;
  /// Fixed [model] choices, keyed by dimension (protocol/discipline/...).
  std::vector<std::pair<std::string, std::string>> model;
  /// Fixed [params] numerics, sorted by key.
  std::vector<std::pair<std::string, double>> params;
  /// [grid] axes in declaration order (axis order IS the sweep nesting
  /// order: the last axis varies fastest, exec/param_grid.hpp).
  std::vector<ScenarioAxis> axes;
  /// Fixed [faults] fields, in canonical order.
  std::vector<std::pair<std::string, double>> faults;

  /// The [grid] axis named `name`, or nullptr if it is not swept.
  const ScenarioAxis* find_axis(std::string_view name) const;

  /// Canonical INI text; parse(dump()) == *this and dump is idempotent.
  std::string dump() const;
};

/// Parses scenario text. `filename` only labels error messages.
ScenarioSpec parse_scenario(std::string_view text,
                            std::string_view filename = "<string>");

/// Reads and parses a scenario file; throws ScenarioError if unreadable.
ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace ffc::scenario
