// Tests for the declarative ScenarioSpec layer (src/scenario): strict INI
// parsing with file:line diagnostics, the canonical-dump round-trip
// contract (parse o dump is the identity on dumps), grid expansion, and
// materialization into core models. Grammar in docs/PROTOCOLS.md.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/rate_adjustment.hpp"
#include "scenario/materialize.hpp"
#include "scenario/spec.hpp"

namespace {

using ffc::scenario::parse_scenario;
using ffc::scenario::ScenarioError;
using ffc::scenario::ScenarioGrid;
using ffc::scenario::ScenarioSpec;

const char* kFullSpec = R"(# commentary and odd spacing are fine on input
[scenario]
name = demo
description = a demo scenario
seed = 42

[topology]
kind = parking_lot
hops = 3
cross   =   2
latency = 0.05

[model]
discipline = fair_share
feedback = individual

[params]
eta = 0.3
beta = 0.6
alpha = 1
kappa = 0.5

; full-line comments in either style
[grid]
protocol = rcp, rcp1
signal_loss = 0, 0.25

[faults]
signal_delay_epochs = 2
)";

TEST(ScenarioParse, ReadsEverySection) {
  const ScenarioSpec spec = parse_scenario(kFullSpec, "demo.ini");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.description, "a demo scenario");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.topology_kind, "parking_lot");
  ASSERT_EQ(spec.topology.size(), 3u);  // canonical order: hops, cross, latency
  EXPECT_EQ(spec.topology[0].first, "hops");
  EXPECT_EQ(spec.topology[1].first, "cross");
  EXPECT_EQ(spec.topology[2].first, "latency");
  ASSERT_EQ(spec.model.size(), 2u);
  EXPECT_EQ(spec.model[0].first, "discipline");
  EXPECT_EQ(spec.model[0].second, "fair_share");
  ASSERT_EQ(spec.params.size(), 4u);  // sorted by key
  EXPECT_EQ(spec.params[0].first, "alpha");
  EXPECT_EQ(spec.params[3].first, "kappa");
  ASSERT_EQ(spec.axes.size(), 2u);  // declaration order
  EXPECT_EQ(spec.axes[0].name, "protocol");
  EXPECT_TRUE(spec.axes[0].categorical);
  EXPECT_EQ(spec.axes[1].name, "signal_loss");
  EXPECT_FALSE(spec.axes[1].categorical);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.faults[0].second, 2.0);
}

TEST(ScenarioParse, DumpIsAFixedPointOfParse) {
  // The round-trip contract behind `scenario_run --check` and the
  // scenario_roundtrip_* ctests: the canonical dump of any parseable input
  // reparses to byte-identical canonical form.
  const std::string canonical = parse_scenario(kFullSpec, "demo.ini").dump();
  EXPECT_EQ(parse_scenario(canonical, "<dump>").dump(), canonical);
  // Normalization is real: the messy input is NOT already canonical.
  EXPECT_NE(canonical, kFullSpec);
  // The dump carries no comments and sorts [params].
  EXPECT_EQ(canonical.find('#'), std::string::npos);
  EXPECT_LT(canonical.find("alpha = 1"), canonical.find("beta = 0.6"));
}

TEST(ScenarioParse, ErrorsCarryFileAndLine) {
  const auto error_of = [](std::string_view text) -> std::string {
    try {
      parse_scenario(text, "bad.ini");
    } catch (const ScenarioError& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_EQ(error_of("[scenario]\nname = x\n[oops]\n"),
            "bad.ini:3: unknown section [oops] (expected scenario, topology, "
            "model, params, grid, or faults)");
  EXPECT_EQ(error_of("[scenario]\nname = x\nname = y\n"),
            "bad.ini:3: duplicate key 'name'");
  EXPECT_EQ(error_of("[scenario]\nname = x\n[topology]\nkind = ring\n"),
            "bad.ini:4: unknown topology kind 'ring' (expected "
            "single_bottleneck, parking_lot, tandem)");
  EXPECT_EQ(error_of("[scenario]\nname = x\n[topology]\nkind = "
                     "single_bottleneck\nconnections = 4\n[model]\nprotocol "
                     "= tcp\n"),
            "bad.ini:7: unknown protocol 'tcp' (expected additive, "
            "multiplicative, limd, window_limd, rcp, rcp1, aimd)");
  EXPECT_EQ(error_of("[scenario]\nname = x\n[topology]\nkind = "
                     "single_bottleneck\nconnections = 0\n"),
            "bad.ini:5: key 'connections' expects an integer >= 1");
  EXPECT_EQ(error_of("[scenario]\nname = x\n[topology]\nkind = "
                     "single_bottleneck\nconnections = 4\n[model]\nprotocol "
                     "= additive\n[faults]\nsignal_loss = 1.5\n"),
            "bad.ini:9: key 'signal_loss' must be a probability in [0, 1]");
  EXPECT_EQ(error_of("[scenario]\nname = x\n[topology]\nkind = "
                     "single_bottleneck\nconnections = 4\n[model]\nprotocol "
                     "= additive\n[params]\neta = fast\n"),
            "bad.ini:9: key 'eta' expects a number, got 'fast'");
}

TEST(ScenarioParse, RejectsFixedAndSweptConflict) {
  const char* text =
      "[scenario]\nname = x\n[topology]\nkind = single_bottleneck\n"
      "connections = 4\n[model]\nprotocol = additive\n[params]\neta = 0.1\n"
      "beta = 0.5\n[grid]\neta = 0.1, 0.2\n";
  EXPECT_THROW(parse_scenario(text, "bad.ini"), ScenarioError);
}

TEST(ScenarioParse, RequiresProtocolSomewhere) {
  const char* text =
      "[scenario]\nname = x\n[topology]\nkind = single_bottleneck\n"
      "connections = 4\n";
  EXPECT_THROW(parse_scenario(text, "bad.ini"), ScenarioError);
}

TEST(ScenarioParse, RequiresTopologySizeKeys) {
  // parking_lot without 'cross' (fixed or swept) must fail.
  const char* text =
      "[scenario]\nname = x\n[topology]\nkind = parking_lot\nhops = 2\n"
      "[model]\nprotocol = additive\n[params]\neta = 0.1\nbeta = 0.5\n";
  EXPECT_THROW(parse_scenario(text, "bad.ini"), ScenarioError);
}

TEST(ScenarioParse, RejectsGridWhoseCellCountOverflows) {
  // 20 numeric axes of 16 values each: 16^20 = 2^80 cells, which wraps a
  // 64-bit std::size_t (to 0). The grid must be refused at its header
  // line, not accepted as a 0-cell sweep.
  std::string text =
      "[scenario]\nname = x\n[topology]\nkind = single_bottleneck\n"
      "connections = 4\n[model]\nprotocol = additive\n[params]\n"
      "beta = 0.5\n[grid]\n";
  std::string values;
  for (int v = 1; v <= 16; ++v) {
    values += (v > 1 ? ", " : "") + std::to_string(v);
  }
  for (int axis = 0; axis < 20; ++axis) {
    text += "a" + std::to_string(axis) + " = " + values + "\n";
  }
  try {
    parse_scenario(text, "huge.ini");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(std::string(error.what()).rfind("huge.ini:10: [grid] ", 0), 0u)
        << error.what();
  }
  // One axis fewer than the wrap point still parses: 16^15 = 2^60 cells.
  std::string fits = text.substr(0, text.find("a15 ="));
  fits += "eta = 0.1\n";
  EXPECT_EQ(parse_scenario(fits, "big.ini").axes.size(), 16u);
}

TEST(ScenarioGridTest, ExpandsRowMajorWithLastAxisFastest) {
  const ScenarioGrid grid(parse_scenario(kFullSpec, "demo.ini"));
  ASSERT_EQ(grid.grid().size(), 4u);  // protocol x signal_loss = 2 x 2
  EXPECT_EQ(grid.cell_label(grid.grid().point(0)),
            "protocol=rcp signal_loss=0");
  EXPECT_EQ(grid.cell_label(grid.grid().point(1)),
            "protocol=rcp signal_loss=0.25");
  EXPECT_EQ(grid.cell_label(grid.grid().point(2)),
            "protocol=rcp1 signal_loss=0");
  EXPECT_EQ(grid.choice("protocol", grid.grid().point(3)), "rcp1");
  // Fixed dims and defaults resolve through choice() too.
  EXPECT_EQ(grid.choice("discipline", grid.grid().point(0)), "fair_share");
  EXPECT_EQ(grid.choice("signal", grid.grid().point(0)), "rational");
}

TEST(ScenarioGridTest, MaterializesModelsAndFaults) {
  const ScenarioGrid grid(parse_scenario(kFullSpec, "demo.ini"));

  const auto rcp = grid.materialize(grid.grid().point(1));
  // parking_lot(hops=3, cross=2): 1 long + 3*2 cross connections.
  EXPECT_EQ(rcp.model.topology().num_connections(), 7u);
  EXPECT_EQ(rcp.adjuster->name(), "rcp:eta*r(alpha(beta-b)-kappa*q)");
  EXPECT_TRUE(rcp.adjuster->is_tsi());
  EXPECT_DOUBLE_EQ(rcp.faults.signal_loss_prob, 0.25);
  EXPECT_EQ(rcp.faults.signal_delay_epochs, 2u);

  const auto rcp1 = grid.materialize(grid.grid().point(2));
  EXPECT_EQ(rcp1.adjuster->name(), "rcp1:eta*r*alpha(beta-b)");
  EXPECT_DOUBLE_EQ(*rcp1.adjuster->steady_signal(), 0.6);
  EXPECT_DOUBLE_EQ(rcp1.faults.signal_loss_prob, 0.0);
}

TEST(ScenarioGridTest, EagerCompletenessCheckNamesTheMissingParameter) {
  // aimd is selectable by the grid but 'increase' is nowhere: constructing
  // the grid must fail up front, not at cell 7 of a sweep.
  const char* text =
      "[scenario]\nname = gappy\n[topology]\nkind = single_bottleneck\n"
      "connections = 4\n[params]\neta = 0.1\nbeta = 0.5\n[grid]\n"
      "protocol = additive, aimd\n";
  try {
    ScenarioGrid grid(parse_scenario(text, "gappy.ini"));
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(std::string(error.what()),
              "scenario 'gappy': protocol 'aimd' requires parameter "
              "'increase' ([params] or [grid])");
  }
}

TEST(ScenarioGridTest, SweptParameterSatisfiesCompleteness) {
  // The same scenario becomes valid when the missing parameters are swept.
  const char* text =
      "[scenario]\nname = ok\n[topology]\nkind = single_bottleneck\n"
      "connections = 4\n[model]\nprotocol = aimd\n[params]\n"
      "decrease = 0.5\nthreshold = 0.6\n[grid]\nincrease = 0.005, 0.01\n";
  const ScenarioGrid grid(parse_scenario(text, "ok.ini"));
  ASSERT_EQ(grid.grid().size(), 2u);
  const auto cell = grid.materialize(grid.grid().point(1));
  EXPECT_EQ(cell.adjuster->name(), "aimd:b<th?a:-m*r");
  EXPECT_FALSE(cell.adjuster->is_tsi());
  // The non-smooth adjuster forces the finite-difference spectral path.
  EXPECT_FALSE(cell.adjuster->differentiable());
}

TEST(ScenarioFile, MissingFileIsAScenarioError) {
  EXPECT_THROW(ffc::scenario::load_scenario_file("/nonexistent/x.ini"),
               ScenarioError);
}

}  // namespace
