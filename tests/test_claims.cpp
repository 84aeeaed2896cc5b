// Pins the claims layer: verdict semantics (exact boundaries, NaN policy),
// registry ordering + duplicate rejection, JSON shape and the generated-
// artifact writers. The full run's determinism contract is
// test_reproduction.cpp's.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "claims/artifacts.hpp"
#include "claims/claims.hpp"
#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "report/markdown.hpp"

namespace {

using ffc::claims::ClaimCheck;
using ffc::claims::ClaimId;
using ffc::claims::ClaimKind;
using ffc::claims::ClaimRegistry;
using ffc::claims::claim_holds;
using ffc::claims::kind_name;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------- ClaimId -------------------------------------------------------

TEST(ClaimId, AcceptsTheExperimentCodesOfThisRepo) {
  for (const char* code : {"TAB1", "E1", "E13b", "E15", "PERF"}) {
    EXPECT_NO_THROW(ClaimId(code, "some_claim")) << code;
  }
  EXPECT_EQ(ClaimId("E7", "fair_share_robust").full(),
            "E7.fair_share_robust");
}

TEST(ClaimId, RejectsMalformedParts) {
  EXPECT_THROW(ClaimId("", "x_y"), std::invalid_argument);
  EXPECT_THROW(ClaimId("e7", "x_y"), std::invalid_argument);    // lowercase
  EXPECT_THROW(ClaimId("E 7", "x_y"), std::invalid_argument);   // space
  EXPECT_THROW(ClaimId("E7", ""), std::invalid_argument);
  EXPECT_THROW(ClaimId("E7", "Robust"), std::invalid_argument); // uppercase
  EXPECT_THROW(ClaimId("E7", "7robust"), std::invalid_argument);
  EXPECT_THROW(ClaimId("E7", "has space"), std::invalid_argument);
  EXPECT_THROW(ClaimId("E7", "has-dash"), std::invalid_argument);
}

// ---------- verdict function ----------------------------------------------

TEST(ClaimHolds, CloseToIncludesTheExactBoundary) {
  // Exactly representable boundary: |1.5 - 1.0| == 0.5 in binary floating
  // point, so the <= comparison is exact.
  EXPECT_TRUE(claim_holds(ClaimKind::CloseTo, 1.5, 1.0, 0.5));
  EXPECT_TRUE(claim_holds(ClaimKind::CloseTo, 0.5, 1.0, 0.5));
  EXPECT_FALSE(claim_holds(ClaimKind::CloseTo, 1.501, 1.0, 0.5));
  EXPECT_TRUE(claim_holds(ClaimKind::CloseTo, 3.0, 3.0, 0.0));
}

TEST(ClaimHolds, AtMostAndAtLeastIncludeTheirBoundaries) {
  EXPECT_TRUE(claim_holds(ClaimKind::AtMost, 1e-12, 1e-12, 0.0));
  EXPECT_FALSE(claim_holds(ClaimKind::AtMost, 1.1e-12, 1e-12, 0.0));
  EXPECT_TRUE(claim_holds(ClaimKind::AtMost, 1.25, 1.0, 0.5));
  EXPECT_TRUE(claim_holds(ClaimKind::AtLeast, 10.0, 10.0, 0.0));
  EXPECT_FALSE(claim_holds(ClaimKind::AtLeast, 9.999, 10.0, 0.0));
  EXPECT_TRUE(claim_holds(ClaimKind::AtLeast, 9.5, 10.0, 0.5));
}

TEST(ClaimHolds, IsTrueDemandsExactlyOne) {
  EXPECT_TRUE(claim_holds(ClaimKind::IsTrue, 1.0, 1.0, 0.0));
  EXPECT_FALSE(claim_holds(ClaimKind::IsTrue, 0.0, 1.0, 0.0));
  EXPECT_FALSE(claim_holds(ClaimKind::IsTrue, 0.5, 1.0, 0.0));
}

TEST(ClaimHolds, NanFailsEveryKind) {
  for (auto kind : {ClaimKind::CloseTo, ClaimKind::AtMost, ClaimKind::AtLeast,
                    ClaimKind::IsTrue}) {
    EXPECT_FALSE(claim_holds(kind, kNan, 1.0, 0.5));
    EXPECT_FALSE(claim_holds(kind, 1.0, kNan, 0.5));
  }
}

TEST(ClaimHolds, InfinitiesBehaveDirectionally) {
  // +inf exceeds any at_least floor; fails any finite at_most bound.
  EXPECT_TRUE(claim_holds(ClaimKind::AtLeast, kInf, 1e-9, 0.0));
  EXPECT_FALSE(claim_holds(ClaimKind::AtMost, kInf, 1e9, 0.0));
  EXPECT_TRUE(claim_holds(ClaimKind::AtMost, -kInf, 0.0, 0.0));
  // inf - inf is NaN; CloseTo must fail, not accidentally pass.
  EXPECT_FALSE(claim_holds(ClaimKind::CloseTo, kInf, kInf, 1.0));
}

TEST(ClaimKindName, StableSerializationNames) {
  EXPECT_EQ(kind_name(ClaimKind::CloseTo), "close_to");
  EXPECT_EQ(kind_name(ClaimKind::AtMost), "at_most");
  EXPECT_EQ(kind_name(ClaimKind::AtLeast), "at_least");
  EXPECT_EQ(kind_name(ClaimKind::IsTrue), "is_true");
}

// ---------- registry -------------------------------------------------------

TEST(ClaimRegistry, PreservesRegistrationOrder) {
  ClaimRegistry reg;
  reg.check_true({"E1", "zeroth"}, "first registered", true);
  reg.check_close({"E1", "first"}, "second registered", 1.0, 1.0, 0.0);
  reg.check_at_most({"E2", "second"}, "third registered", 0.0, 1.0);
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.checks()[0].id.full(), "E1.zeroth");
  EXPECT_EQ(reg.checks()[1].id.full(), "E1.first");
  EXPECT_EQ(reg.checks()[2].id.full(), "E2.second");
  EXPECT_TRUE(reg.all_passed());
  EXPECT_EQ(reg.passed_count(), 3u);
}

TEST(ClaimRegistry, DuplicateIdThrows) {
  ClaimRegistry reg;
  reg.check_true({"E1", "unique"}, "d", true);
  EXPECT_THROW(reg.check_true({"E1", "unique"}, "again", true),
               std::logic_error);
  // Same name under another experiment is fine.
  EXPECT_NO_THROW(reg.check_true({"E2", "unique"}, "d", true));
}

TEST(ClaimRegistry, RejectsBadTolerances) {
  ClaimRegistry reg;
  EXPECT_THROW(reg.check_close({"E1", "neg"}, "d", 1.0, 1.0, -0.1),
               std::invalid_argument);
  EXPECT_THROW(reg.check_close({"E1", "nan"}, "d", 1.0, 1.0, kNan),
               std::invalid_argument);
  EXPECT_THROW(reg.check_close({"E1", "inf"}, "d", 1.0, 1.0, kInf),
               std::invalid_argument);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ClaimRegistry, EmptyRegistryCountsAsAllPassed) {
  EXPECT_TRUE(ClaimRegistry().all_passed());
}

TEST(ClaimRegistry, FailedCheckIsRecordedNotThrown) {
  ClaimRegistry reg;
  const auto& check =
      reg.check_at_most({"E1", "too_big"}, "d", 2.0, 1.0);
  EXPECT_FALSE(check.passed);
  EXPECT_FALSE(reg.all_passed());
  EXPECT_EQ(reg.passed_count(), 0u);
}

TEST(ClaimRegistry, NanMeasurementFailsAtRegistration) {
  ClaimRegistry reg;
  EXPECT_FALSE(reg.check_close({"E1", "nan_m"}, "d", kNan, 1.0, 10.0).passed);
}

// ---------- context + metric annotation ------------------------------------

TEST(ClaimCheck, NotesPreserveInsertionOrder) {
  ClaimRegistry reg;
  auto& check = reg.check_true({"E1", "noted"}, "d", true);
  check.note("zeta", 1.5).note("alpha", std::uint64_t{7});
  ASSERT_EQ(check.context.size(), 2u);
  EXPECT_EQ(check.context[0].first, "zeta");
  EXPECT_EQ(check.context[1].first, "alpha");
  EXPECT_EQ(check.context[1].second, "7");
}

TEST(ClaimCheck, AnnotateMetricsCopiesOnlyThePrefix) {
  ffc::obs::MetricRegistry metrics;
  metrics.add("faults.signals_dropped", 3);
  metrics.add("other.counter", 9);
  metrics.set_gauge("faults.loss_prob", 0.25);

  ClaimRegistry reg;
  auto& check = reg.check_true({"E13b", "annotated"}, "d", true);
  check.annotate_metrics(metrics, "faults.");
  // Counters come first, then gauges, each group sorted by name.
  ASSERT_EQ(check.context.size(), 2u);
  EXPECT_EQ(check.context[0].first, "faults.signals_dropped");
  EXPECT_EQ(check.context[0].second, "3");
  EXPECT_EQ(check.context[1].first, "faults.loss_prob");
}

// ---------- JSON ------------------------------------------------------------

std::string registry_json(const ClaimRegistry& reg) {
  std::ostringstream os;
  ffc::report::JsonWriter w(os, 0);  // indent 0: compact, no spaces
  reg.write_json(w);
  w.close();
  return os.str();
}

TEST(ClaimsJson, EmitsTheFullRecord) {
  ClaimRegistry reg;
  reg.check_close({"E8", "tandem"}, "Burke holds", 1.01, 1.0, 0.12)
      .note("band", 0.12);
  const std::string json = registry_json(reg);
  EXPECT_NE(json.find("\"id\":\"E8.tandem\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"close_to\""), std::string::npos);
  EXPECT_NE(json.find("\"measured\":1.01"), std::string::npos);
  EXPECT_NE(json.find("\"expected\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tolerance\":0.12"), std::string::npos);
  EXPECT_NE(json.find("\"passed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"band\""), std::string::npos);
}

TEST(ClaimsJson, NanMeasurementSerializesAsNullAndFails) {
  ClaimRegistry reg;
  reg.check_close({"E1", "bad"}, "d", kNan, 1.0, 10.0);
  const std::string json = registry_json(reg);
  EXPECT_NE(json.find("\"measured\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"passed\":false"), std::string::npos);
}

// ---------- markdown table --------------------------------------------------

TEST(MarkdownTable, EmitsPipeTableWithEscapes) {
  ffc::report::MarkdownTable t({"claim", "verdict"});
  t.add_row({"E4.spectral|radius", "PASS"});
  std::ostringstream os;
  t.print(os);
  const std::string md = os.str();
  EXPECT_NE(md.find("| claim | verdict |"), std::string::npos) << md;
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("E4.spectral\\|radius"), std::string::npos);
}

TEST(MarkdownTable, RejectsWrongRowWidthAndEmptyHeaders) {
  ffc::report::MarkdownTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(ffc::report::MarkdownTable({}), std::invalid_argument);
}

// ---------- artifacts --------------------------------------------------------

ffc::claims::ReproManifest tiny_manifest() {
  ffc::claims::ReproManifest m;
  m.paper = "S. Shenker, test citation";
  m.command = "ffc_repro --jobs N";
  m.environment = {{"compiler", "test"}, {"arch", "test"}};
  ffc::claims::ExperimentRecord rec;
  rec.id = "E1";
  rec.title = "tiny";
  rec.seed = 42;
  rec.claims.check_true({"E1", "works"}, "d", true);
  m.experiments.push_back(std::move(rec));
  return m;
}

TEST(Artifacts, ClaimsJsonCarriesSchemaAndSummary) {
  std::ostringstream os;
  ffc::claims::write_claims_json(tiny_manifest(), os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"ffc.claims.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"all_passed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(Artifacts, MarkdownCarriesBannerAndClaimRow) {
  std::ostringstream os;
  ffc::claims::write_reproduction_markdown(tiny_manifest(), os);
  const std::string md = os.str();
  EXPECT_EQ(md.rfind("<!-- GENERATED FILE", 0), 0u) << md.substr(0, 80);
  EXPECT_NE(md.find("## E1"), std::string::npos);
  EXPECT_NE(md.find("`E1.works`"), std::string::npos);
  EXPECT_NE(md.find("Base seed: 42"), std::string::npos);
}

TEST(Artifacts, WritersAreDeterministic) {
  std::ostringstream a, b;
  ffc::claims::write_claims_json(tiny_manifest(), a);
  ffc::claims::write_claims_json(tiny_manifest(), b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
