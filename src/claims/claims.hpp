// Machine-checked claims: named, toleranced predicates tying each paper
// claim to a measured value.
//
// EXPERIMENTS.md used to be the only map from Shenker '90's theorems to
// what the experiments actually verify, and "exit 0 iff the claim holds"
// was the only machine-readable contract. This layer replaces the bare
// bool-accumulation in the experiment bodies with first-class records: every
// predicate an experiment checks becomes a ClaimCheck -- an id, the paper
// claim in one sentence, the measured value, the expected value, a
// tolerance, and the verdict -- collected in a ClaimRegistry. The unified
// ffc_repro driver aggregates the registries of all experiments and
// GENERATES REPRODUCTION.md and claims.json (schema ffc.claims.v1) from
// them, so the repo's headline deliverable is a regenerable, CI-gated
// artifact instead of hand-maintained prose (docs/CLAIMS.md).
//
// Verdict rules (pinned by tests/test_claims.cpp):
//   * close_to  : |measured - expected| <= tolerance
//   * at_most   : measured <= expected + tolerance
//   * at_least  : measured >= expected - tolerance
//   * is_true   : measured == 1 (bool predicates; expected 1, tolerance 0)
//   * A NaN measured value FAILS every kind -- silent non-finite results
//     must surface as FAIL, never as an accidental pass.
//   * Exact boundaries pass: |m - e| == tolerance is within tolerance.
//   * Tolerances must be finite and >= 0 (enforced at registration).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ffc::report {
class JsonWriter;
}
namespace ffc::obs {
class MetricRegistry;
}

namespace ffc::claims {

/// Identifies one claim: the experiment code from EXPERIMENTS.md ("TAB1",
/// "E1" ... "E15", "E13b") plus a snake_case claim name, rendered as
/// "E7.fair_share_robust". Construction validates both parts (experiment:
/// leading uppercase letter, then alphanumerics; name: leading lowercase
/// letter, then [a-z0-9_]) and throws std::invalid_argument otherwise, so
/// malformed ids never reach a generated artifact.
struct ClaimId {
  ClaimId(std::string experiment_code, std::string claim_name);

  std::string experiment;  ///< e.g. "E7"
  std::string name;        ///< e.g. "fair_share_robust"

  /// "experiment.name", the form used in REPRODUCTION.md and claims.json.
  std::string full() const { return experiment + "." + name; }
};

/// Comparison semantics of one claim (see verdict rules above).
enum class ClaimKind { CloseTo, AtMost, AtLeast, IsTrue };

/// Stable serialization name: "close_to", "at_most", "at_least", "is_true".
std::string_view kind_name(ClaimKind kind);

/// Pure verdict function; NaN anywhere -> false. Exposed for tests.
bool claim_holds(ClaimKind kind, double measured, double expected,
                 double tolerance);

/// One checked claim: the record REPRODUCTION.md rows and claims.json
/// entries are generated from.
struct ClaimCheck {
  ClaimId id;
  std::string description;  ///< the paper claim, one sentence
  ClaimKind kind = ClaimKind::CloseTo;
  double measured = 0.0;
  double expected = 0.0;
  double tolerance = 0.0;
  bool passed = false;

  /// Free-form context (impairment level, fault counters, floors...) that
  /// rides into the per-claim manifest. Insertion order is preserved.
  std::vector<std::pair<std::string, std::string>> context;

  /// Appends one context entry; returns *this for chaining.
  ClaimCheck& note(std::string key, std::string value);
  ClaimCheck& note(std::string key, double value);
  ClaimCheck& note(std::string key, std::uint64_t value);

  /// Copies every counter, then every gauge, whose name starts with
  /// `prefix` from `metrics` into the context (each group in map order,
  /// i.e. sorted by name). This is how impaired-run claims carry their
  /// `faults.*` counters.
  ClaimCheck& annotate_metrics(const obs::MetricRegistry& metrics,
                               std::string_view prefix);

  /// Writes this check as one JSON object (non-finite doubles follow the
  /// JsonWriter null convention; `passed` stays authoritative).
  void write_json(report::JsonWriter& w) const;
};

/// Ordered collection of ClaimChecks for one experiment. Registration order is preserved -- it is the
/// row order of the generated REPRODUCTION.md tables -- and ids must be
/// unique (duplicate registration throws std::logic_error).
class ClaimRegistry {
 public:
  /// Registers a claim with explicit kind; returns the stored record so
  /// callers can attach context. Throws on duplicate id or on a tolerance
  /// that is negative or non-finite.
  ClaimCheck& add(ClaimId id, std::string description, ClaimKind kind,
                  double measured, double expected, double tolerance);

  // Convenience forms, one per kind.
  ClaimCheck& check_close(ClaimId id, std::string description,
                          double measured, double expected, double tolerance);
  ClaimCheck& check_at_most(ClaimId id, std::string description,
                            double measured, double expected,
                            double tolerance = 0.0);
  ClaimCheck& check_at_least(ClaimId id, std::string description,
                             double measured, double expected,
                             double tolerance = 0.0);
  ClaimCheck& check_true(ClaimId id, std::string description, bool measured);

  const std::vector<ClaimCheck>& checks() const { return checks_; }
  std::size_t size() const { return checks_.size(); }
  std::size_t passed_count() const;
  bool all_passed() const;  ///< true for an empty registry

  /// Writes the registry as one JSON array of claim objects, in
  /// registration order.
  void write_json(report::JsonWriter& w) const;

 private:
  std::vector<ClaimCheck> checks_;
};

}  // namespace ffc::claims
