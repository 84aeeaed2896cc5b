#include "scenario/spec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/congestion.hpp"
#include "queueing/discipline.hpp"

namespace ffc::scenario {

namespace {

using exec::IniEntry;
using exec::IniSection;
using exec::one_of;
using exec::TokenSet;

// Canonical key orders (dump order) and the strict per-section vocabulary.
constexpr std::array<std::string_view, 3> kScenarioKeys = {"name",
                                                           "description",
                                                           "seed"};
constexpr std::array<std::string_view, 7> kTopologySectionKeys = {
    "kind", "connections", "hops", "cross", "mu_last", "mu", "latency"};
/// The numeric [topology] keys: all but `kind`.
constexpr TokenSet kTopologyKeys = TokenSet(kTopologySectionKeys).subspan(1);
constexpr std::array<std::string_view, 4> kModelDims = {
    "protocol", "discipline", "feedback", "signal"};
constexpr std::array<std::string_view, 3> kFaultKeys = {
    "signal_loss", "signal_duplicate", "signal_delay_epochs"};
constexpr std::array<std::string_view, 3> kTopologyKinds = {
    "single_bottleneck", "parking_lot", "tandem"};
constexpr std::array<std::string_view, 7> kProtocols = {
    "additive", "multiplicative", "limd", "window_limd",
    "rcp",      "rcp1",           "aimd"};
constexpr std::array<std::string_view, 6> kSignals = {
    "rational", "quadratic", "exponential", "power", "smoothstep", "binary"};

constexpr std::array<exec::IniSectionSchema, 6> kSchema = {{
    {"scenario", false, kScenarioKeys, {}},
    {"topology", true, kTopologySectionKeys, {}},
    {"model", false, kModelDims, {}},
    {"params", false, {}, "parameter name"},
    {"grid", false, {}, "axis name"},
    {"faults", false, kFaultKeys, {}},
}};

/// The size keys a topology kind needs, fixed or swept.
std::vector<std::string_view> required_size_keys(std::string_view kind) {
  if (kind == "parking_lot") return {"hops", "cross"};
  if (kind == "tandem") return {"connections", "hops"};
  return {"connections"};  // single_bottleneck
}

/// The section a fixed value of `key` belongs in.
std::string_view home_of(std::string_view key) {
  if (one_of(key, kModelDims)) return "model";
  if (one_of(key, kTopologyKeys)) return "topology";
  if (one_of(key, kFaultKeys)) return "faults";
  return "params";
}

TokenSet dim_tokens(std::string_view dim) {
  if (dim == "protocol") return kProtocols;
  if (dim == "discipline") return queueing::kDisciplineTokens;
  if (dim == "feedback") return core::kFeedbackTokens;
  return kSignals;
}

bool is_nonneg_integer(double v) {
  return v >= 0.0 && v == std::floor(v) && v <= 9.007199254740992e15;
}

/// Domain rules shared by fixed values and swept grid values.
void check_domain(const exec::IniDocument& doc, int line, std::string_view key,
                  double value) {
  if (key == "connections" || key == "hops" || key == "cross") {
    if (!is_nonneg_integer(value) || value < 1.0) {
      doc.fail(line, "key '" + std::string(key) + "' expects an integer >= 1");
    }
  } else if (key == "mu" || key == "mu_last") {
    if (!(value > 0.0)) {
      doc.fail(line, "key '" + std::string(key) + "' must be positive");
    }
  } else if (key == "latency") {
    if (!(value >= 0.0)) {
      doc.fail(line, "key 'latency' must be >= 0");
    }
  } else if (key == "signal_loss" || key == "signal_duplicate") {
    if (!(value >= 0.0 && value <= 1.0)) {
      doc.fail(line, "key '" + std::string(key) +
                         "' must be a probability in [0, 1]");
    }
  } else if (key == "signal_delay_epochs") {
    if (!is_nonneg_integer(value)) {
      doc.fail(line, "key 'signal_delay_epochs' expects an integer >= 0");
    }
  }
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view text, std::string_view filename) {
  // ---- pass 1: lex + vocabulary (exec/ini.hpp) ----------------------------
  const exec::IniDocument doc(text, filename, kSchema);
  const IniSection& scenario_sec = doc.section("scenario");
  const IniSection& topology_sec = doc.section("topology");
  const IniSection& model_sec = doc.section("model");
  const IniSection& params_sec = doc.section("params");
  const IniSection& grid_sec = doc.section("grid");
  const IniSection& faults_sec = doc.section("faults");

  // ---- pass 2: value validation -------------------------------------------
  ScenarioSpec spec;

  spec.name = doc.name(doc.require("scenario", "name"), "scenario name");
  if (const IniEntry* e = scenario_sec.find("description")) {
    spec.description = e->value;
  }
  if (const IniEntry* e = scenario_sec.find("seed")) spec.seed = doc.u64(*e);

  const IniEntry& kind = doc.require("topology", "kind");
  doc.expect_token(kind.line, "topology kind", kind.value, kTopologyKinds);
  spec.topology_kind = kind.value;
  for (std::string_view key : kTopologyKeys) {
    if (const IniEntry* e = topology_sec.find(key)) {
      const double v = doc.number(*e);
      check_domain(doc, e->line, key, v);
      spec.topology.emplace_back(std::string(key), v);
    }
  }

  for (std::string_view dim : kModelDims) {
    if (const IniEntry* e = model_sec.find(dim)) {
      doc.expect_token(e->line, dim, e->value, dim_tokens(dim));
      spec.model.emplace_back(std::string(dim), e->value);
    }
  }

  for (const IniEntry& e : params_sec.entries) {
    if (const std::string_view home = home_of(e.key); home != "params") {
      doc.fail(e.line, "key '" + e.key + "' belongs in [" +
                           std::string(home) + "], not [params]");
    }
    spec.params.emplace_back(e.key, doc.number(e));
  }
  std::sort(spec.params.begin(), spec.params.end());

  for (std::string_view key : kFaultKeys) {
    if (const IniEntry* e = faults_sec.find(key)) {
      const double v = doc.number(*e);
      check_domain(doc, e->line, key, v);
      spec.faults.emplace_back(std::string(key), v);
    }
  }

  // The sweep indexes cells with a std::size_t, so the product of the axis
  // sizes must not wrap.
  std::size_t cells = 1;
  for (const IniEntry& e : grid_sec.entries) {
    ScenarioAxis axis;
    axis.name = e.key;
    axis.categorical = home_of(e.key) == "model";
    const std::vector<std::string> items = doc.list(e);
    for (const std::string& item : items) {
      if (axis.categorical) {
        doc.expect_token(e.line, e.key, item, dim_tokens(e.key));
        if (std::find(axis.labels.begin(), axis.labels.end(), item) !=
            axis.labels.end()) {
          doc.fail(e.line, "axis '" + e.key + "' repeats '" + item + "'");
        }
        axis.labels.push_back(item);
      } else {
        const double v = doc.number(e, item);
        check_domain(doc, e.line, e.key, v);
        axis.values.push_back(v);
      }
    }
    if (cells > std::numeric_limits<std::size_t>::max() / items.size()) {
      doc.fail(grid_sec.line,
               "[grid] has more than " +
                   std::to_string(std::numeric_limits<std::size_t>::max()) +
                   " cells");
    }
    cells *= items.size();
    spec.axes.push_back(std::move(axis));
  }

  // ---- pass 3: cross-section consistency ----------------------------------
  for (const ScenarioAxis& axis : spec.axes) {
    if (const IniEntry* fixed =
            doc.section(home_of(axis.name)).find(axis.name)) {
      doc.fail(fixed->line,
               "key '" + axis.name + "' is both fixed and swept in [grid]");
    }
  }
  for (std::string_view key : required_size_keys(spec.topology_kind)) {
    if (topology_sec.find(key) == nullptr && spec.find_axis(key) == nullptr) {
      doc.fail(topology_sec.line, "topology kind '" + spec.topology_kind +
                                      "' requires '" + std::string(key) +
                                      "' (fixed or swept)");
    }
  }
  if (model_sec.find("protocol") == nullptr &&
      spec.find_axis("protocol") == nullptr) {
    doc.fail(model_sec.seen ? model_sec.line : doc.end_line(),
             "'protocol' must be set in [model] or swept in [grid]");
  }

  return spec;
}

const ScenarioAxis* ScenarioSpec::find_axis(std::string_view name) const {
  for (const ScenarioAxis& axis : axes) {
    if (axis.name == name) return &axis;
  }
  return nullptr;
}

std::string ScenarioSpec::dump() const {
  using exec::format_double;
  std::ostringstream out;
  const auto numbers = [&](const char* header, const auto& fixed) {
    if (!fixed.empty()) out << header;
    for (const auto& [key, value] : fixed) {
      out << key << " = " << format_double(value) << "\n";
    }
  };
  out << "[scenario]\nname = " << name << "\n";
  if (!description.empty()) out << "description = " << description << "\n";
  out << "seed = " << seed << "\n";

  out << "\n[topology]\nkind = " << topology_kind << "\n";
  numbers("", topology);

  if (!model.empty()) {
    out << "\n[model]\n";
    for (const auto& [dim, token] : model) {
      out << dim << " = " << token << "\n";
    }
  }

  numbers("\n[params]\n", params);

  if (!axes.empty()) {
    out << "\n[grid]\n";
    for (const ScenarioAxis& axis : axes) {
      out << axis.name << " = ";
      if (axis.categorical) {
        for (std::size_t i = 0; i < axis.labels.size(); ++i) {
          if (i > 0) out << ", ";
          out << axis.labels[i];
        }
      } else {
        out << exec::format_list(axis.values);
      }
      out << "\n";
    }
  }

  numbers("\n[faults]\n", faults);
  return out.str();
}

ScenarioSpec load_scenario_file(const std::string& path) {
  return parse_scenario(exec::read_config_file(path, "scenario"), path);
}

}  // namespace ffc::scenario
