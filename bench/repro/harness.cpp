#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
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

namespace {

const ExperimentInfo* find_experiment(std::string_view id) {
  for (const auto& info : all_experiments()) {
    if (id == info.id) return &info;
  }
  return nullptr;
}

/// Reports a flag value that take_flag_value accepted but that does not
/// parse as the flag's type.
void bad_value(ReproCli& cli, std::string_view flag, const std::string& value) {
  std::cerr << "ffc_repro: bad " << flag << " value '" << value << "'\n";
  cli.error = true;
}

/// Resolves a comma-separated --only list against the registry, in the
/// order given; false (with a diagnostic) on an empty, unknown or repeated
/// id.
bool parse_only(const std::string& list,
                std::vector<const ExperimentInfo*>& only) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = std::min(list.find(',', start), list.size());
    const std::string id = list.substr(start, end - start);
    const ExperimentInfo* info = find_experiment(id);
    if (id.empty()) {
      std::cerr << "ffc_repro: --only '" << list << "' has an empty id\n";
      return false;
    }
    if (info == nullptr) {
      std::cerr << "ffc_repro: unknown experiment id '" << id << "' (ids:";
      for (const auto& known : all_experiments()) std::cerr << ' ' << known.id;
      std::cerr << ")\n";
      return false;
    }
    if (std::find(only.begin(), only.end(), info) != only.end()) {
      std::cerr << "ffc_repro: --only lists '" << id << "' twice\n";
      return false;
    }
    only.push_back(info);
    if (end == list.size()) return true;
    start = end + 1;
  }
}

/// The flag combinations --only and --metrics-out rule out.
void check_combinations(ReproCli& cli) {
  if (!cli.only.empty() && !cli.output_dir.empty()) {
    std::cerr << "ffc_repro: --only writes no artifacts; drop --output-dir\n";
    cli.error = true;
  } else if (!cli.only.empty() && cli.verbose) {
    std::cerr << "ffc_repro: --only prints each experiment's stdout "
                 "already; drop --verbose\n";
    cli.error = true;
  } else if (!cli.metrics_out.empty() &&
             std::count_if(cli.only.begin(), cli.only.end(),
                           [](const ExperimentInfo* info) {
                             return info->sweep_enabled;
                           }) != 1) {
    std::cerr << "ffc_repro: --metrics-out needs --only with exactly one "
                 "sweep-enabled id\n";
    cli.error = true;
  }
}

}  // namespace

ReproCli parse_repro_cli(int argc, char** argv) {
  using exec::TakeResult;
  ReproCli cli;
  for (int i = 1; i < argc && !cli.error; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    TakeResult taken;
    // A malformed value (TakeResult::Error) has already been reported.
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg == "--verbose") {
      cli.verbose = true;
    } else if ((taken = exec::take_flag_value("--jobs", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else if (!exec::parse_size(value, cli.repro.sweep.jobs)) {
        bad_value(cli, "--jobs", value);
      }
    } else if ((taken = exec::take_flag_value("--seed", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else if (!exec::parse_u64(value, cli.repro.sweep.base_seed)) {
        bad_value(cli, "--seed", value);
      }
      cli.repro.override_seeds = true;
    } else if ((taken = exec::take_flag_value("--output-dir", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else {
        cli.output_dir = value;
      }
    } else if ((taken = exec::take_flag_value("--metrics-out", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else {
        cli.metrics_out = value;
      }
    } else if ((taken = exec::take_flag_value("--only", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else if (!cli.only.empty()) {
        std::cerr << "ffc_repro: --only given twice\n";
        cli.error = true;
      } else {
        cli.error = !parse_only(value, cli.only);
      }
    } else {
      std::cerr << "ffc_repro: unknown argument '" << arg << "'\n";
      cli.error = true;
    }
  }
  if (!cli.error) check_combinations(cli);
  return cli;
}

}  // namespace ffc::repro
