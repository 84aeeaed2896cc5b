// Shared command-line handling for sweep-enabled experiment binaries.
//
// Every converted experiment accepts the same flags:
//
//   --jobs N            worker threads for SweepRunner (0 = all hardware
//                       threads; default 1, the historical serial behaviour)
//   --seed S            master seed; per-task seeds derive from (S, grid
//                       index)
//   --metrics-out FILE  write the sweep's JSON run manifest (per-task seeds,
//                       grid points, durations, merged metrics) to FILE
//
// so `exp_e5_bifurcation --jobs 8` and `exp_e5_bifurcation --jobs 1` emit
// byte-identical stdout/CSV (see docs/DETERMINISM.md). Timing output goes
// to stderr for the same reason; the manifest is byte-identical across
// --jobs values except for its timing fields (docs/OBSERVABILITY.md).
//
// Parsing is strict where silence used to lie: numeric values must parse in
// full (std::from_chars), a flag refuses to consume a following "--token"
// as its value, "--jobs=" is an explicit error, and every such failure sets
// SweepCli::error so the binary exits nonzero instead of running with a
// silently-wrong configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "exec/sweep_runner.hpp"

namespace ffc::exec {

/// Strict full-string decimal parse (std::from_chars): no sign, no leading
/// whitespace, no trailing junk, no overflow. Returns false (out untouched)
/// on any deviation -- "12x", "-3", " 7", "" all fail.
bool parse_u64(std::string_view text, std::uint64_t& out);

/// Same, narrowed to std::size_t (fails if the value does not fit).
bool parse_size(std::string_view text, std::size_t& out);

/// Strict full-string floating-point parse: the entire string must parse
/// and the result must be FINITE ("inf"/"nan"/"1e999" fail; a leading '-'
/// is allowed, range checks are the caller's job). No locale, no partial
/// consumption -- "0.5x" fails where std::stod would silently return 0.5.
bool parse_double(std::string_view text, double& out);

/// Outcome of take_flag_value.
enum class TakeResult {
  NoMatch,  ///< argv[i] is not this flag
  Value,    ///< value extracted
  Error,    ///< argv[i] is this flag but the value is missing/empty/flag-like
};

/// If argv[i] is `name` takes the next argv entry as the value (advancing
/// i past it); if it is `name=value` takes the text after '='. A value that
/// itself starts with "--" is refused in BOTH forms, as is an empty one:
/// `--jobs --seed 5` must not eat `--seed`, and `--output-dir=--x` must not
/// name a directory "--x". Errors print a diagnostic on stderr.
TakeResult take_flag_value(std::string_view name, int argc, char** argv,
                           int& i, std::string& value);

/// Parsed sweep flags.
struct SweepCli {
  SweepOptions options;     ///< jobs + base_seed, ready for SweepRunner
  std::string metrics_out;  ///< --metrics-out path; empty = no manifest
  bool help = false;        ///< --help / -h was given; usage already printed
  bool error = false;       ///< bad flag value; message already on stderr
};

/// Parses --jobs/--seed/--metrics-out (both "--flag value" and "--flag=value"
/// forms) from argv. Unknown arguments are ignored with a warning on stderr,
/// so experiments keep their historical "no required arguments" contract --
/// but a recognized flag with a missing, empty, flag-like, or non-numeric
/// value is an ERROR: the parser prints a diagnostic and sets
/// SweepCli::error, and callers must exit nonzero. `default_seed` seeds
/// sweeps when --seed is absent.
SweepCli parse_sweep_cli(int argc, char** argv,
                         std::uint64_t default_seed = 1);

}  // namespace ffc::exec
