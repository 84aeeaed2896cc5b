// The experiment registry behind ffc_repro.
//
// Every experiment body is a free function `run_*` taking an
// ExperimentContext: it prints its tables to ctx.out, and registers every
// pass/fail predicate as a named claims::ClaimCheck (docs/CLAIMS.md).
// ffc_repro runs the whole table through exec::SweepRunner and generates
// REPRODUCTION.md + claims.json from the per-experiment registries, or,
// with `--only ID[,ID...]`, runs the listed bodies against
// std::cout/std::cerr. Keeping one body per experiment -- instead of one
// per consumer -- is what guarantees the generated report and a single
// experiment's stdout can never disagree.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "claims/artifacts.hpp"
#include "claims/claims.hpp"
#include "exec/sweep_runner.hpp"

namespace ffc::repro {

/// Everything an experiment body needs from its host.
///
/// `ffc_repro --only` binds out/err to std::cout/std::cerr; the full run
/// binds them to per-task buffers (err is discarded -- sweep timing must
/// never reach a generated artifact, see docs/DETERMINISM.md).
struct ExperimentContext {
  std::ostream& out;  ///< experiment stdout (tables, verdict line)
  std::ostream& err;  ///< timing / progress; never byte-compared
  claims::ClaimRegistry claims;
  /// Inner-sweep configuration for sweep-enabled experiments (E5, E8, E12,
  /// E13b, E18, E19): jobs and base seed, from --jobs/--seed under
  /// `--only`, or set by the full run.
  exec::SweepOptions sweep;
  std::string metrics_out;  ///< --only's --metrics-out path; empty = none
  bool io_error = false;    ///< an artifact write failed; exit nonzero
  /// Markdown the experiment wants appended after its REPRODUCTION.md claim
  /// table (claims::ExperimentRecord::appendix). Must be deterministic --
  /// the check-docs atlas gate byte-compares it against a fresh run. An
  /// experiment that sets it also prints it to `out` (between the same
  /// sentinel comments), so `--only` prints the identical block the gate
  /// extracts.
  std::string appendix;
};

/// One row of the experiment registry.
struct ExperimentInfo {
  const char* id;             ///< EXPERIMENTS.md code: "TAB1", "E1", "E13b"...
  const char* title;          ///< one line, used as the REPRODUCTION.md heading
  bool sweep_enabled;         ///< accepts --jobs/--seed (has an inner sweep)
  std::uint64_t default_seed; ///< inner-sweep seed when --seed is absent
  void (*run)(ExperimentContext&);
};

/// The full registry, in EXPERIMENTS.md order (TAB1, E1..E13, E13b, E14,
/// E15, E16, E18, E19). Ids are unique; this order is the section order of
/// REPRODUCTION.md.
const std::vector<ExperimentInfo>& all_experiments();

// Experiment bodies, one per EXPERIMENTS.md section.
void run_table1(ExperimentContext& ctx);
void run_e1(ExperimentContext& ctx);
void run_e2(ExperimentContext& ctx);
void run_e3(ExperimentContext& ctx);
void run_e4(ExperimentContext& ctx);
void run_e5(ExperimentContext& ctx);
void run_e6(ExperimentContext& ctx);
void run_e7(ExperimentContext& ctx);
void run_e8(ExperimentContext& ctx);
void run_e9(ExperimentContext& ctx);
void run_e10(ExperimentContext& ctx);
void run_e11(ExperimentContext& ctx);
void run_e12(ExperimentContext& ctx);
void run_e13(ExperimentContext& ctx);
void run_e13b(ExperimentContext& ctx);
void run_e14(ExperimentContext& ctx);
void run_e15(ExperimentContext& ctx);
void run_e16(ExperimentContext& ctx);
void run_e18(ExperimentContext& ctx);
void run_e19(ExperimentContext& ctx);

/// Configuration of a full reproduction run.
struct ReproOptions {
  exec::SweepOptions sweep;     ///< jobs for the experiment fan-out + --seed
  bool override_seeds = false;  ///< true: inner seeds derive from sweep.base_seed
};

/// Runs every experiment (fanned through exec::SweepRunner at
/// opts.sweep.jobs, results collected in registry order) and returns the
/// manifest REPRODUCTION.md / claims.json are generated from. With
/// override_seeds false each sweep-enabled experiment uses its historical
/// default seed, so the artifacts match the committed ones; with it true,
/// experiment i's inner base seed is derive_task_seed(sweep.base_seed, i).
/// Per-experiment stdout goes to `echo_out` when it is not null (registry
/// order, regardless of completion order); sweep timing goes to `err`.
claims::ReproManifest run_reproduction(const ReproOptions& opts,
                                       std::ostream& err,
                                       std::ostream* echo_out = nullptr);

/// A parsed ffc_repro command line.
struct ReproCli {
  ReproOptions repro;      ///< --jobs, --seed
  std::string output_dir;  ///< --output-dir; empty = "." (full run only)
  bool verbose = false;    ///< --verbose (full run only)
  /// --only: the selected experiments in the order given; empty = the full
  /// run.
  std::vector<const ExperimentInfo*> only;
  std::string metrics_out;  ///< --metrics-out (one sweep-enabled --only id)
  bool help = false;        ///< --help / -h
  bool error = false;       ///< bad argv; the diagnostic is on std::cerr
};

/// Parses ffc_repro's argv, both "--flag value" and "--flag=value" forms.
/// It runs nothing. Parsing stops at the first rejection, which prints a
/// diagnostic on std::cerr and sets `error`: an unknown argument; a
/// missing, empty, flag-like or non-numeric value; an unknown, empty or
/// repeated --only id, or a second --only; --only with --output-dir or
/// --verbose; --metrics-out without exactly one sweep-enabled --only id.
ReproCli parse_repro_cli(int argc, char** argv);

}  // namespace ffc::repro
