#include "search/hunt_spec.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "core/congestion.hpp"
#include "exec/cli.hpp"
#include "queueing/discipline.hpp"

namespace ffc::search {

namespace {

using exec::IniEntry;
using exec::IniSection;

constexpr std::array<std::string_view, 12> kHuntKeys = {
    "name",        "description", "seed",          "fitness",
    "onset_axis",  "population",  "elite",         "generations",
    "restarts",    "initial_sigma", "sigma_floor", "tree_iterations"};
constexpr std::array<std::string_view, 4> kOracleKeys = {
    "connections", "beta", "discipline", "feedback"};
constexpr std::array<std::string_view, 4> kFitnessNames = {
    "spectral_radius", "slowest_convergence", "earliest_onset",
    "max_unfairness"};

constexpr std::array<exec::IniSectionSchema, 4> kSchema = {{
    {"hunt", true, kHuntKeys, {}},
    {"oracle", true, kOracleKeys, {}},
    {"continuous", false, {}, "axis name"},
    {"discrete", false, {}, "axis name"},
}};

}  // namespace

HuntSpec parse_hunt(std::string_view text, std::string_view filename) {
  // ---- pass 1: lex + vocabulary (exec/ini.hpp) ----------------------------
  const exec::IniDocument doc(text, filename, kSchema);
  const IniSection& hunt_sec = doc.section("hunt");
  const IniSection& oracle_sec = doc.section("oracle");
  const IniSection& continuous_sec = doc.section("continuous");
  const IniSection& discrete_sec = doc.section("discrete");

  // ---- pass 2: value validation -------------------------------------------
  HuntSpec spec;

  spec.name = doc.name(doc.require("hunt", "name"), "hunt name");
  if (const IniEntry* e = hunt_sec.find("description")) {
    spec.description = e->value;
  }
  if (const IniEntry* e = hunt_sec.find("seed")) spec.seed = doc.u64(*e);
  const IniEntry& fitness = doc.require("hunt", "fitness");
  doc.expect_token(fitness.line, "fitness functional", fitness.value,
                   kFitnessNames);
  spec.fitness = fitness_kind_from_name(fitness.value);
  if (const IniEntry* e = hunt_sec.find("population")) {
    spec.population = doc.count(*e, 2);
  }
  const IniEntry* elite = hunt_sec.find("elite");
  if (elite != nullptr) spec.elite = doc.count(*elite);
  if (spec.elite < 1 || spec.elite >= spec.population) {
    doc.fail(elite != nullptr ? elite->line : hunt_sec.line,
             "'elite' must be in [1, population)");
  }
  if (const IniEntry* e = hunt_sec.find("generations")) {
    spec.generations = doc.count(*e, 1);
  }
  if (const IniEntry* e = hunt_sec.find("restarts")) {
    spec.restarts = doc.count(*e, 1);
  }
  if (const IniEntry* e = hunt_sec.find("initial_sigma")) {
    spec.initial_sigma = doc.number(*e);
  }
  if (const IniEntry* e = hunt_sec.find("sigma_floor")) {
    spec.sigma_floor = doc.number(*e);
  }
  if (!(spec.initial_sigma > 0.0) || !(spec.sigma_floor > 0.0) ||
      spec.sigma_floor > spec.initial_sigma) {
    doc.fail(hunt_sec.line,
             "'initial_sigma' and 'sigma_floor' must be positive with "
             "sigma_floor <= initial_sigma");
  }
  if (const IniEntry* e = hunt_sec.find("tree_iterations")) {
    spec.tree_iterations = doc.count(*e);
  }

  spec.connections = doc.count(doc.require("oracle", "connections"), 2);
  const IniEntry& beta = doc.require("oracle", "beta");
  spec.beta = doc.number(beta);
  if (!(spec.beta > 0.0 && spec.beta < 1.0)) {
    doc.fail(beta.line, "key 'beta' must lie in (0, 1)");
  }
  if (const IniEntry* e = oracle_sec.find("discipline")) {
    doc.expect_token(e->line, "discipline", e->value,
                     queueing::kDisciplineTokens);
    spec.discipline = e->value;
  }
  if (const IniEntry* e = oracle_sec.find("feedback")) {
    doc.expect_token(e->line, "feedback mode", e->value,
                     core::kFeedbackTokens);
    spec.feedback = e->value;
  }

  // ---- axes: [continuous] first, then [discrete], each in file order ------
  for (const IniEntry& e : continuous_sec.entries) {
    const std::vector<std::string> items = doc.list(e);
    if (items.size() != 2) {
      doc.fail(e.line, "continuous axis '" + e.key +
                           "' expects 'lo, hi', got '" + e.value + "'");
    }
    HuntAxis axis;
    axis.name = e.key;
    axis.lo = doc.number(e, items[0]);
    axis.hi = doc.number(e, items[1]);
    if (!(axis.lo < axis.hi)) {
      doc.fail(e.line, "continuous axis '" + e.key + "' needs lo < hi");
    }
    spec.axes.push_back(std::move(axis));
  }
  for (const IniEntry& e : discrete_sec.entries) {
    // Keys are unique within a section, so only a discrete axis can clash.
    for (const HuntAxis& other : spec.axes) {
      if (other.name == e.key) {
        doc.fail(e.line, "duplicate axis '" + e.key + "'");
      }
    }
    HuntAxis axis;
    axis.name = e.key;
    axis.discrete = true;
    for (const std::string& item : doc.list(e)) {
      const double v = doc.number(e, item);
      if (!axis.values.empty() && !(v > axis.values.back())) {
        doc.fail(e.line, "discrete axis '" + e.key +
                             "' values must be strictly increasing");
      }
      axis.values.push_back(v);
    }
    spec.axes.push_back(std::move(axis));
  }

  // ---- pass 3: cross-section consistency ----------------------------------
  if (spec.axes.empty()) {
    doc.fail(doc.end_line(),
             "a hunt needs at least one axis ([continuous] or [discrete])");
  }
  const IniEntry* onset_entry = hunt_sec.find("onset_axis");
  if (spec.fitness == FitnessKind::EarliestOnset) {
    if (onset_entry == nullptr) {
      doc.fail(hunt_sec.line,
               "fitness 'earliest_onset' requires 'onset_axis'");
    }
    bool is_continuous_axis = false;
    for (const HuntAxis& axis : spec.axes) {
      if (axis.name == onset_entry->value) {
        is_continuous_axis = !axis.discrete;
        break;
      }
    }
    if (!is_continuous_axis) {
      doc.fail(onset_entry->line,
               "'onset_axis' must name a declared continuous axis, got '" +
                   onset_entry->value + "'");
    }
    spec.onset_axis = onset_entry->value;
  } else if (onset_entry != nullptr) {
    doc.fail(onset_entry->line,
             "'onset_axis' is only meaningful with fitness 'earliest_onset'");
  }
  if (spec.tree_iterations > 0) {
    const bool any_discrete = std::any_of(
        spec.axes.begin(), spec.axes.end(),
        [](const HuntAxis& axis) { return axis.discrete; });
    if (!any_discrete) {
      doc.fail(hunt_sec.line,
               "'tree_iterations' > 0 requires at least one [discrete] axis");
    }
  }

  return spec;
}

SearchSpace HuntSpec::to_space() const {
  SearchSpace space;
  for (const HuntAxis& axis : axes) {
    if (axis.discrete) {
      space.discrete(axis.name, axis.values);
    } else {
      space.continuous(axis.name, axis.lo, axis.hi);
    }
  }
  return space;
}

SearchOptions HuntSpec::to_options(std::size_t jobs) const {
  SearchOptions options;
  options.population = population;
  options.elite = elite;
  options.generations = generations;
  options.restarts = restarts;
  options.initial_sigma = initial_sigma;
  options.sigma_floor = sigma_floor;
  options.exec.jobs = jobs;
  options.exec.base_seed = seed;
  return options;
}

TreeOptions HuntSpec::to_tree_options(std::size_t jobs) const {
  TreeOptions options;
  options.rounds = tree_iterations;
  options.exec.jobs = jobs;
  // The tree refinement continues the hunt: its seed stream hangs off the
  // spec seed at an index no CEM restart can reach.
  options.exec.base_seed =
      exec::derive_task_seed(seed, std::uint64_t{1} << 48);
  return options;
}

std::string HuntSpec::dump() const {
  using exec::format_double;
  std::ostringstream out;
  out << "[hunt]\nname = " << name << "\n";
  if (!description.empty()) out << "description = " << description << "\n";
  out << "seed = " << seed << "\n";
  out << "fitness = " << fitness_kind_name(fitness) << "\n";
  if (!onset_axis.empty()) out << "onset_axis = " << onset_axis << "\n";
  out << "population = " << population << "\n";
  out << "elite = " << elite << "\n";
  out << "generations = " << generations << "\n";
  out << "restarts = " << restarts << "\n";
  out << "initial_sigma = " << format_double(initial_sigma) << "\n";
  out << "sigma_floor = " << format_double(sigma_floor) << "\n";
  if (tree_iterations > 0) {
    out << "tree_iterations = " << tree_iterations << "\n";
  }

  out << "\n[oracle]\nconnections = " << connections << "\n";
  out << "beta = " << format_double(beta) << "\n";
  out << "discipline = " << discipline << "\n";
  out << "feedback = " << feedback << "\n";

  // [continuous] then [discrete], each in declaration order; a section
  // without axes is left out.
  for (const bool discrete : {false, true}) {
    bool first = true;
    for (const HuntAxis& axis : axes) {
      if (axis.discrete != discrete) continue;
      if (std::exchange(first, false)) {
        out << (discrete ? "\n[discrete]\n" : "\n[continuous]\n");
      }
      out << axis.name << " = "
          << exec::format_list(discrete ? axis.values
                                        : std::vector{axis.lo, axis.hi})
          << "\n";
    }
  }
  return out.str();
}

HuntSpec load_hunt_file(const std::string& path) {
  return parse_hunt(exec::read_config_file(path, "hunt spec"), path);
}

}  // namespace ffc::search
