// scenario_run: execute a declarative ScenarioSpec config file
// (docs/PROTOCOLS.md) -- adding or editing a scenario never needs a
// recompile.
//
//   $ scenario_run FILE.ini [--check] [--jobs N] [--seed S]
//
// Default mode expands the file's grid and, per cell, solves the analytic
// fixed point and its spectral stability; cells with a non-empty fault plan
// additionally run the impaired asynchronous dynamics (core::run_async)
// under the plan's signal-path fields. Cells fan out through
// exec::SweepRunner: output is byte-identical at any --jobs.
//
// --check only validates: strict parse, grid completeness, and canonical
// round-trip (parse -> dump -> parse must reproduce dump byte-identically).
// The scenario_roundtrip_* ctest entries run every committed scenarios/*.ini
// through this gate.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/ffc.hpp"
#include "exec/cli.hpp"
#include "exec/sweep_runner.hpp"
#include "report/table.hpp"
#include "scenario/materialize.hpp"
#include "scenario/spec.hpp"
#include "spectral/stability.hpp"

namespace {

int usage() {
  std::cerr << "usage: scenario_run FILE.ini [--check] [--jobs N>=0] "
               "[--seed S]\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffc;

  std::string file;
  bool check_only = false;
  exec::SweepOptions sweep;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    exec::TakeResult taken;
    if (arg == "--check") {
      check_only = true;
    } else if ((taken = exec::take_flag_value("--jobs", argc, argv, i,
                                              value)) !=
               exec::TakeResult::NoMatch) {
      if (taken == exec::TakeResult::Error ||
          !exec::parse_size(value, sweep.jobs)) {
        return usage();
      }
    } else if ((taken = exec::take_flag_value("--seed", argc, argv, i,
                                              value)) !=
               exec::TakeResult::NoMatch) {
      if (taken == exec::TakeResult::Error ||
          !exec::parse_u64(value, sweep.base_seed)) {
        return usage();
      }
    } else if (arg.substr(0, 2) == "--" || !file.empty()) {
      return usage();
    } else {
      file = arg;
    }
  }
  if (file.empty()) return usage();

  try {
    const scenario::ScenarioSpec spec = scenario::load_scenario_file(file);
    const scenario::ScenarioGrid grid(spec);  // eager completeness check

    // Canonical round-trip: dump must be a fixed point of parse o dump.
    const std::string canonical = spec.dump();
    const std::string again =
        scenario::parse_scenario(canonical, "<dump>").dump();
    if (again != canonical) {
      std::cerr << "error: dump/parse round-trip is not canonical for '"
                << file << "'\n";
      return EXIT_FAILURE;
    }

    if (check_only) {
      std::cout << "scenario '" << spec.name << "': OK ("
                << grid.grid().size() << " cells, canonical form "
                << canonical.size() << " bytes)\n";
      return EXIT_SUCCESS;
    }

    std::cout << "scenario '" << spec.name << "': " << spec.description
              << "\n" << grid.grid().size() << " cells, seed " << spec.seed
              << "\n";
    if (sweep.base_seed == exec::SweepOptions{}.base_seed) {
      sweep.base_seed = spec.seed;
    }

    struct CellOut {
      bool converged = false;
      double radius = 0.0;
      bool stable = false;
      bool impaired = false;
      bool settled = false;
      double mean_rate = 0.0;
    };
    exec::SweepRunner runner(sweep);
    const auto cells = runner.run(
        grid.grid(),
        [&](const exec::GridPoint& p, std::uint64_t seed,
            obs::MetricRegistry& /*metrics*/) -> CellOut {
          const scenario::ScenarioCase cell = grid.materialize(p);
          CellOut result;

          std::vector<double> start(cell.model.topology().num_connections(),
                                    0.1);
          if (cell.model.homogeneous_tsi()) {
            start = core::fair_steady_state(cell.model);
          }
          core::FixedPointOptions fp;
          fp.damping = 0.5;
          const auto fixed = core::solve_fixed_point(cell.model, start, fp);
          result.converged = fixed.converged;
          if (fixed.converged) {
            const auto report =
                spectral::spectral_stability(cell.model, fixed.rates);
            result.radius = report.spectral_radius;
            result.stable = report.systemically_stable;
          }

          if (!cell.faults.empty()) {
            result.impaired = true;
            core::AsyncOptions async;
            async.horizon = 2000.0;
            async.seed = seed;
            async.faults = &cell.faults;
            const auto impaired = core::run_async(
                cell.model,
                std::vector<double>(
                    cell.model.topology().num_connections(), 0.1),
                async);
            result.settled = impaired.settled;
            double sum = 0.0;
            for (double r : impaired.final_rates) sum += r;
            result.mean_rate =
                sum / static_cast<double>(impaired.final_rates.size());
          }
          return result;
        });
    runner.last_report().print(std::cerr);

    report::TextTable table({"cell", "fixed point", "radius", "stable?",
                             "impaired run"});
    table.set_title("\nper-cell analysis");
    for (std::size_t idx = 0; idx < grid.grid().size(); ++idx) {
      const auto p = grid.grid().point(idx);
      const CellOut& cell = cells[idx];
      std::string label = grid.cell_label(p);
      if (label.empty()) label = "(single cell)";
      std::string impaired = "-";
      if (cell.impaired) {
        impaired = std::string(cell.settled ? "settled" : "unsettled") +
                   ", mean rate " + report::fmt(cell.mean_rate, 4);
      }
      table.add_row({label,
                     cell.converged ? "converged" : "no fixed point",
                     cell.converged ? report::fmt(cell.radius, 4) : "-",
                     cell.converged ? report::fmt_bool(cell.stable) : "-",
                     impaired});
    }
    table.print(std::cout);
    return EXIT_SUCCESS;
  } catch (const scenario::ScenarioError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return usage();
  }
}
