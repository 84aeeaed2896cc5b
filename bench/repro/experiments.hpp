// The experiment registry behind both the standalone exp_* binaries and the
// unified ffc_repro driver.
//
// Every experiment body is a free function `run_*` taking an
// ExperimentContext: it prints its tables to ctx.out exactly as the
// historical binary did, and registers every pass/fail predicate it used to
// fold into a bare `bool ok` as a named claims::ClaimCheck (docs/CLAIMS.md).
// The standalone binaries are all the same one-line main (repro/exp_main.cpp
// compiled with FFC_EXPERIMENT_ID) calling experiment_main(); ffc_repro runs
// the whole table through exec::SweepRunner and generates REPRODUCTION.md +
// claims.json from the merged registries. Keeping one body per experiment --
// instead of one per consumer -- is what guarantees the generated report and
// the binaries can never disagree.
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
/// Standalone binaries bind out/err to std::cout/std::cerr; ffc_repro binds
/// them to per-task buffers (err is discarded -- sweep timing must never
/// reach a generated artifact, see docs/DETERMINISM.md).
struct ExperimentContext {
  std::ostream& out;  ///< experiment stdout (tables, verdict line)
  std::ostream& err;  ///< timing / progress; never byte-compared
  claims::ClaimRegistry claims;
  /// Inner-sweep configuration for sweep-enabled experiments (E5, E8, E12,
  /// E13b): jobs and base seed, from the CLI when standalone or from the
  /// driver when under ffc_repro.
  exec::SweepOptions sweep;
  std::string metrics_out;  ///< standalone --metrics-out path; empty = none
  bool io_error = false;    ///< an artifact write failed; exit nonzero
  /// Markdown the experiment wants appended after its REPRODUCTION.md claim
  /// table (claims::ExperimentRecord::appendix). Must be deterministic --
  /// the check-docs atlas gate byte-compares it against a fresh run. An
  /// experiment that sets it also prints it to `out` (between the same
  /// sentinel comments), so the standalone binary carries the identical
  /// block the gate extracts.
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

/// Standalone-binary entry point: looks up `id` in the registry, parses the
/// sweep CLI when the experiment is sweep-enabled (preserving the historical
/// flags and default seed), runs the body against std::cout/std::cerr, and
/// returns EXIT_SUCCESS iff every registered claim passed and no artifact
/// write failed.
int experiment_main(const char* id, int argc, char** argv);

/// Configuration of a full reproduction run.
struct ReproOptions {
  exec::SweepOptions sweep;     ///< jobs for the experiment fan-out + --seed
  bool override_seeds = false;  ///< true: inner seeds derive from sweep.base_seed
  bool verbose = false;         ///< echo each experiment's stdout to `echo_out`
};

/// Runs every experiment (fanned through exec::SweepRunner at
/// opts.sweep.jobs, results collected in registry order) and returns the
/// manifest REPRODUCTION.md / claims.json are generated from. With
/// override_seeds false each sweep-enabled experiment uses its historical
/// default seed, so the artifacts match the committed ones; with it true,
/// experiment i's inner base seed is derive_task_seed(sweep.base_seed, i).
/// Per-experiment stdout goes to `echo_out` when opts.verbose (registry
/// order, regardless of completion order); sweep timing goes to `err`.
claims::ReproManifest run_reproduction(const ReproOptions& opts,
                                       std::ostream& err,
                                       std::ostream* echo_out = nullptr);

}  // namespace ffc::repro
