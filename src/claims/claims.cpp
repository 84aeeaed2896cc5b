#include "claims/claims.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "report/json.hpp"

namespace ffc::claims {

namespace {

bool valid_experiment_code(std::string_view code) {
  if (code.empty() || !std::isupper(static_cast<unsigned char>(code[0]))) {
    return false;
  }
  for (char c : code) {
    if (!std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool valid_claim_name(std::string_view name) {
  if (name.empty() || !std::islower(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  for (char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!(std::islower(u) || std::isdigit(u) || c == '_')) return false;
  }
  return true;
}

// Compact deterministic rendering for context values ("0.25", "1e-09").
std::string fmt_compact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

ClaimId::ClaimId(std::string experiment_code, std::string claim_name)
    : experiment(std::move(experiment_code)), name(std::move(claim_name)) {
  if (!valid_experiment_code(experiment)) {
    throw std::invalid_argument("ClaimId: bad experiment code '" +
                                experiment + "'");
  }
  if (!valid_claim_name(name)) {
    throw std::invalid_argument("ClaimId: bad claim name '" + name + "'");
  }
}

std::string_view kind_name(ClaimKind kind) {
  switch (kind) {
    case ClaimKind::CloseTo:
      return "close_to";
    case ClaimKind::AtMost:
      return "at_most";
    case ClaimKind::AtLeast:
      return "at_least";
    case ClaimKind::IsTrue:
      return "is_true";
  }
  return "?";
}

bool claim_holds(ClaimKind kind, double measured, double expected,
                 double tolerance) {
  if (std::isnan(measured) || std::isnan(expected) || std::isnan(tolerance)) {
    return false;
  }
  switch (kind) {
    case ClaimKind::CloseTo: {
      // |inf - inf| is NaN; the explicit check keeps the rule "NaN never
      // passes" airtight without special-casing infinities.
      const double gap = std::fabs(measured - expected);
      return !std::isnan(gap) && gap <= tolerance;
    }
    case ClaimKind::AtMost:
      return measured <= expected + tolerance;
    case ClaimKind::AtLeast:
      return measured >= expected - tolerance;
    case ClaimKind::IsTrue:
      return measured == 1.0;
  }
  return false;
}

ClaimCheck& ClaimCheck::note(std::string key, std::string value) {
  context.emplace_back(std::move(key), std::move(value));
  return *this;
}

ClaimCheck& ClaimCheck::note(std::string key, double value) {
  return note(std::move(key), fmt_compact(value));
}

ClaimCheck& ClaimCheck::note(std::string key, std::uint64_t value) {
  return note(std::move(key), std::to_string(value));
}

ClaimCheck& ClaimCheck::annotate_metrics(const obs::MetricRegistry& metrics,
                                         std::string_view prefix) {
  for (const auto& [name_, value] : metrics.counters()) {
    if (std::string_view(name_).substr(0, prefix.size()) == prefix) {
      note(name_, static_cast<std::uint64_t>(value));
    }
  }
  for (const auto& [name_, value] : metrics.gauges()) {
    if (std::string_view(name_).substr(0, prefix.size()) == prefix) {
      note(name_, value);
    }
  }
  return *this;
}

void ClaimCheck::write_json(report::JsonWriter& w) const {
  w.begin_object();
  w.kv("id", id.full());
  w.kv("experiment", id.experiment);
  w.kv("name", id.name);
  w.kv("description", description);
  w.kv("kind", kind_name(kind));
  w.kv("measured", measured);
  w.kv("expected", expected);
  w.kv("tolerance", tolerance);
  w.kv("passed", passed);
  if (!context.empty()) {
    w.key("context").begin_object();
    for (const auto& [key, value] : context) w.kv(key, value);
    w.end_object();
  }
  w.end_object();
}

ClaimCheck& ClaimRegistry::add(ClaimId id, std::string description,
                               ClaimKind kind, double measured,
                               double expected, double tolerance) {
  if (!(tolerance >= 0.0) || !std::isfinite(tolerance)) {
    throw std::invalid_argument("ClaimRegistry: tolerance for " + id.full() +
                                " must be finite and >= 0");
  }
  const std::string full = id.full();
  for (const auto& existing : checks_) {
    if (existing.id.full() == full) {
      throw std::logic_error("ClaimRegistry: duplicate claim id " + full);
    }
  }
  ClaimCheck check{std::move(id), std::move(description), kind,
                   measured,      expected,               tolerance,
                   /*passed=*/false,
                   /*context=*/{}};
  check.passed = claim_holds(kind, measured, expected, tolerance);
  checks_.push_back(std::move(check));
  return checks_.back();
}

ClaimCheck& ClaimRegistry::check_close(ClaimId id, std::string description,
                                       double measured, double expected,
                                       double tolerance) {
  return add(std::move(id), std::move(description), ClaimKind::CloseTo,
             measured, expected, tolerance);
}

ClaimCheck& ClaimRegistry::check_at_most(ClaimId id, std::string description,
                                         double measured, double expected,
                                         double tolerance) {
  return add(std::move(id), std::move(description), ClaimKind::AtMost,
             measured, expected, tolerance);
}

ClaimCheck& ClaimRegistry::check_at_least(ClaimId id, std::string description,
                                          double measured, double expected,
                                          double tolerance) {
  return add(std::move(id), std::move(description), ClaimKind::AtLeast,
             measured, expected, tolerance);
}

ClaimCheck& ClaimRegistry::check_true(ClaimId id, std::string description,
                                      bool measured) {
  return add(std::move(id), std::move(description), ClaimKind::IsTrue,
             measured ? 1.0 : 0.0, 1.0, 0.0);
}

std::size_t ClaimRegistry::passed_count() const {
  std::size_t count = 0;
  for (const auto& check : checks_) count += check.passed;
  return count;
}

bool ClaimRegistry::all_passed() const {
  return passed_count() == checks_.size();
}

void ClaimRegistry::write_json(report::JsonWriter& w) const {
  w.begin_array();
  for (const auto& check : checks_) check.write_json(w);
  w.end_array();
}

}  // namespace ffc::claims
