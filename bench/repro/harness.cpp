#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "exec/cli.hpp"
#include "exec/param_grid.hpp"
#include "repro/experiments.hpp"

namespace ffc::repro {

const std::vector<ExperimentInfo>& all_experiments() {
  static const std::vector<ExperimentInfo> table = {
      {"TAB1", "Fair Share priority decomposition (paper Table 1)", false, 0,
       &run_table1},
      {"E1", "Theorem 1: time-scale invariance", false, 0, &run_e1},
      {"E2", "Theorem 2: aggregate feedback fairness", false, 0, &run_e2},
      {"E3", "Theorem 3 + Corollary: individual feedback fairness", false, 0,
       &run_e3},
      {"E4", "Aggregate-feedback instability (unilateral != systemic)", false,
       0, &run_e4},
      {"E5", "Route to chaos of symmetric aggregate feedback", true, 1,
       &run_e5},
      {"E6", "Theorem 4: Fair Share makes unilateral stability systemic",
       false, 0, &run_e6},
      {"E7", "Theorem 5 + 3.4: robustness under heterogeneity", false, 0,
       &run_e7},
      {"E8", "Discrete-event validation of the analytic model", true, 2025,
       &run_e8},
      {"E9", "Conjecture (3.3): counterexample search", false, 0, &run_e9},
      {"E10", "Real flow-control algorithms (4)", false, 0, &run_e10},
      {"E11", "Asynchronous updates vs the synchronous model", false, 0,
       &run_e11},
      {"E12", "Design matrix (5), measured", true, 1, &run_e12},
      {"E13", "LIMD under binary feedback (Chiu-Jain setting)", false, 0,
       &run_e13},
      {"E13b", "Theorem 5 robustness under feedback impairment", true, 1990,
       &run_e13b},
      {"E14", "DECbit window control on the packet simulator", false, 0,
       &run_e14},
      {"E15", "Connection churn (join/leave transients)", false, 0, &run_e15},
      {"E16", "Sparse spectral stability at N = 1e5", false, 0, &run_e16},
      {"E18", "Modern protocols (RCP, AIMD) under declarative scenarios",
       true, 1810, &run_e18},
      {"E19", "Adversarial chaos atlas (CEM + tree search)", true, 1414,
       &run_e19},
  };
  return table;
}

namespace {

const ExperimentInfo* find_experiment(const char* id) {
  for (const auto& info : all_experiments()) {
    if (std::strcmp(info.id, id) == 0) return &info;
  }
  return nullptr;
}

}  // namespace

int experiment_main(const char* id, int argc, char** argv) {
  const ExperimentInfo* info = find_experiment(id);
  if (info == nullptr) {
    std::cerr << "unknown experiment id '" << id << "'\n";
    return EXIT_FAILURE;
  }
  ExperimentContext ctx{std::cout, std::cerr, {}, {}, {}, false, {}};
  if (info->sweep_enabled) {
    const auto cli = exec::parse_sweep_cli(argc, argv, info->default_seed);
    if (cli.help) return EXIT_SUCCESS;
    if (cli.error) return EXIT_FAILURE;
    ctx.sweep = cli.options;
    ctx.metrics_out = cli.metrics_out;
  }
  info->run(ctx);
  return ctx.claims.all_passed() && !ctx.io_error ? EXIT_SUCCESS
                                                  : EXIT_FAILURE;
}

claims::ReproManifest run_reproduction(const ReproOptions& opts,
                                       std::ostream& err,
                                       std::ostream* echo_out) {
  const auto& experiments = all_experiments();

  struct TaskResult {
    claims::ClaimRegistry claims;
    std::string output;
    std::string appendix;
    bool io_error = false;
  };

  exec::ParamGrid grid;
  grid.axis("experiment",
            exec::ParamGrid::linspace(0.0, experiments.size() - 1,
                                      experiments.size()));
  exec::SweepRunner runner(opts.sweep);
  auto results = runner.run(
      grid, [&](const exec::GridPoint& p, std::uint64_t seed) -> TaskResult {
        const ExperimentInfo& info = experiments[p.index()];
        std::ostringstream out;
        std::ostringstream timing;  // discarded: wall-clock must not leak
        ExperimentContext ctx{out, timing, {}, {}, {}, false, {}};
        // Inner sweeps run serially inside their fan-out slot; the outer
        // --jobs is the parallelism knob. Seeds stay on each experiment's
        // historical default unless the driver's --seed overrides them.
        ctx.sweep.jobs = 1;
        ctx.sweep.base_seed = opts.override_seeds ? seed : info.default_seed;
        info.run(ctx);
        return TaskResult{std::move(ctx.claims), out.str(),
                          std::move(ctx.appendix), ctx.io_error};
      });
  runner.last_report().print(err);

  claims::ReproManifest manifest;
  manifest.paper =
      "S. Shenker, \"A Theoretical Analysis of Feedback Flow Control\", "
      "SIGCOMM 1990";
  manifest.command = "ffc_repro --jobs N  (see docs/CLAIMS.md)";
  manifest.environment = claims::build_environment();
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const ExperimentInfo& info = experiments[i];
    if (echo_out != nullptr) *echo_out << results[i].output;
    claims::ExperimentRecord record;
    record.id = info.id;
    record.title = info.title;
    if (info.sweep_enabled) {
      record.seed = opts.override_seeds
                        ? exec::derive_task_seed(opts.sweep.base_seed, i)
                        : info.default_seed;
    }
    record.claims = std::move(results[i].claims);
    record.appendix = std::move(results[i].appendix);
    manifest.experiments.push_back(std::move(record));
  }
  return manifest;
}

}  // namespace ffc::repro
