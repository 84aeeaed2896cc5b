#include "scenario/materialize.hpp"

#include <algorithm>
#include <vector>

#include "network/builders.hpp"
#include "queueing/discipline.hpp"

namespace ffc::scenario {

namespace {

/// Numeric parameters a protocol token needs resolvable, by name.
std::vector<std::string_view> protocol_params(std::string_view protocol) {
  if (protocol == "rcp") return {"eta", "alpha", "kappa", "beta"};
  if (protocol == "rcp1") return {"eta", "alpha", "beta"};
  if (protocol == "aimd") return {"increase", "decrease", "threshold"};
  return {"eta", "beta"};  // additive, multiplicative, limd, window_limd
}

std::vector<std::string_view> signal_params(std::string_view signal) {
  if (signal == "exponential") return {"exp_k"};
  if (signal == "power") return {"power_p"};
  if (signal == "smoothstep") return {"sharpness", "signal_threshold"};
  if (signal == "binary") return {"signal_threshold"};
  return {};  // rational, quadratic
}

std::string_view dim_default(std::string_view dim) {
  if (dim == "discipline") return "fifo";
  if (dim == "feedback") return "aggregate";
  if (dim == "signal") return "rational";
  return {};  // protocol has no default (parse_scenario enforces presence)
}

const double* find_fixed(const ScenarioSpec& spec, std::string_view key) {
  for (const auto& [k, v] : spec.topology) {
    if (k == key) return &v;
  }
  for (const auto& [k, v] : spec.params) {
    if (k == key) return &v;
  }
  for (const auto& [k, v] : spec.faults) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

ScenarioGrid::ScenarioGrid(ScenarioSpec spec) : spec_(std::move(spec)) {
  for (const ScenarioAxis& axis : spec_.axes) {
    std::vector<double> values;
    if (axis.categorical) {
      values.resize(axis.labels.size());
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = static_cast<double>(i);
      }
    } else {
      values = axis.values;
    }
    grid_.axis(axis.name, std::move(values));
  }

  // Eager completeness check over the categorical combinations only (the
  // numeric axis values were domain-checked at parse time): every
  // protocol/signal the grid can select must find its parameters.
  auto tokens_of = [&](std::string_view dim) -> std::vector<std::string> {
    if (const ScenarioAxis* axis = spec_.find_axis(dim)) return axis->labels;
    for (const auto& [d, token] : spec_.model) {
      if (d == dim) return {token};
    }
    return {std::string(dim_default(dim))};
  };
  auto has_value = [&](std::string_view key) {
    return spec_.find_axis(key) != nullptr ||
           find_fixed(spec_, key) != nullptr;
  };
  auto require = [&](std::string_view owner_dim, const std::string& token,
                     const std::vector<std::string_view>& needed) {
    for (std::string_view key : needed) {
      if (!has_value(key)) {
        throw ScenarioError("scenario '" + spec_.name + "': " +
                            std::string(owner_dim) + " '" + token +
                            "' requires parameter '" + std::string(key) +
                            "' ([params] or [grid])");
      }
    }
  };
  for (const std::string& protocol : tokens_of("protocol")) {
    require("protocol", protocol, protocol_params(protocol));
  }
  for (const std::string& signal : tokens_of("signal")) {
    require("signal", signal, signal_params(signal));
  }
}

std::string ScenarioGrid::choice(std::string_view dim,
                                 const exec::GridPoint& point) const {
  if (const ScenarioAxis* axis = spec_.find_axis(dim)) {
    return axis->labels.at(static_cast<std::size_t>(point.get(dim)));
  }
  for (const auto& [d, token] : spec_.model) {
    if (d == dim) return token;
  }
  return std::string(dim_default(dim));
}

double ScenarioGrid::value(std::string_view key,
                           const exec::GridPoint& point) const {
  if (spec_.find_axis(key) != nullptr) return point.get(key);
  if (const double* fixed = find_fixed(spec_, key)) return *fixed;
  throw ScenarioError("scenario '" + spec_.name +
                      "' does not define parameter '" + std::string(key) +
                      "'");
}

std::string ScenarioGrid::cell_label(const exec::GridPoint& point) const {
  std::string label;
  for (const ScenarioAxis& axis : spec_.axes) {
    if (!label.empty()) label += ' ';
    label += axis.name;
    label += '=';
    if (axis.categorical) {
      label += axis.labels.at(static_cast<std::size_t>(point.get(axis.name)));
    } else {
      label += exec::format_double(point.get(axis.name));
    }
  }
  return label;
}

ScenarioCase ScenarioGrid::materialize(const exec::GridPoint& point) const {
  auto value_or = [&](std::string_view key, double fallback) {
    if (spec_.find_axis(key) != nullptr) return point.get(key);
    if (const double* fixed = find_fixed(spec_, key)) return *fixed;
    return fallback;
  };
  auto size_of = [&](std::string_view key) {
    return static_cast<std::size_t>(value(key, point));
  };

  const double mu = value_or("mu", 1.0);
  const double latency = value_or("latency", 0.0);
  network::Topology topology = [&] {
    if (spec_.topology_kind == "parking_lot") {
      return network::parking_lot(size_of("hops"), size_of("cross"), mu,
                                  latency);
    }
    if (spec_.topology_kind == "tandem") {
      return network::tandem(size_of("hops"), size_of("connections"), mu,
                             value_or("mu_last", 0.5), latency);
    }
    return network::single_bottleneck(size_of("connections"), mu, latency);
  }();

  const std::string protocol = choice("protocol", point);
  std::shared_ptr<const core::RateAdjustment> adjuster;
  if (protocol == "additive") {
    adjuster = std::make_shared<core::AdditiveTsi>(value("eta", point),
                                                   value("beta", point));
  } else if (protocol == "multiplicative") {
    adjuster = std::make_shared<core::MultiplicativeTsi>(value("eta", point),
                                                         value("beta", point));
  } else if (protocol == "limd") {
    adjuster = std::make_shared<core::RateLimd>(value("eta", point),
                                                value("beta", point));
  } else if (protocol == "window_limd") {
    adjuster = std::make_shared<core::WindowLimd>(value("eta", point),
                                                  value("beta", point));
  } else if (protocol == "rcp") {
    adjuster = std::make_shared<core::RcpAdjustment>(
        value("eta", point), value("alpha", point), value("kappa", point),
        value("beta", point));
  } else if (protocol == "rcp1") {
    adjuster = std::make_shared<core::RcpAdjustment>(
        value("eta", point), value("alpha", point), 0.0,
        value("beta", point));
  } else {  // aimd
    adjuster = std::make_shared<core::AimdAdjustment>(
        value("increase", point), value("decrease", point),
        value("threshold", point));
  }

  const std::string signal_token = choice("signal", point);
  std::shared_ptr<const core::SignalFunction> signal;
  if (signal_token == "quadratic") {
    signal = std::make_shared<core::QuadraticSignal>();
  } else if (signal_token == "exponential") {
    signal = std::make_shared<core::ExponentialSignal>(value("exp_k", point));
  } else if (signal_token == "power") {
    signal = std::make_shared<core::PowerSignal>(value("power_p", point));
  } else if (signal_token == "smoothstep") {
    signal = std::make_shared<core::SmoothStepSignal>(
        value("sharpness", point), value("signal_threshold", point));
  } else if (signal_token == "binary") {
    signal = std::make_shared<core::BinarySignal>(
        value("signal_threshold", point));
  } else {
    signal = std::make_shared<core::RationalSignal>();
  }

  const core::FeedbackStyle style =
      core::feedback_style(choice("feedback", point));

  faults::FaultPlan plan;
  plan.signal_loss_prob = value_or("signal_loss", 0.0);
  plan.signal_duplicate_prob = value_or("signal_duplicate", 0.0);
  plan.signal_delay_epochs =
      static_cast<std::size_t>(value_or("signal_delay_epochs", 0.0));

  ScenarioCase result{
      {},
      {},
      core::FlowControlModel(std::move(topology),
                             queueing::make_discipline(
                                 choice("discipline", point)),
                             signal, style, adjuster),
      std::move(plan),
      std::move(signal),
      std::move(adjuster)};
  for (std::string_view dim : {"protocol", "discipline", "feedback",
                               "signal"}) {
    result.choices.emplace_back(std::string(dim), choice(dim, point));
  }
  for (const ScenarioAxis& axis : spec_.axes) {
    if (!axis.categorical) {
      result.values.emplace_back(axis.name, point.get(axis.name));
    }
  }
  for (const auto& [k, v] : spec_.topology) result.values.emplace_back(k, v);
  for (const auto& [k, v] : spec_.params) result.values.emplace_back(k, v);
  for (const auto& [k, v] : spec_.faults) result.values.emplace_back(k, v);
  return result;
}

}  // namespace ffc::scenario
