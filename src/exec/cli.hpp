// Strict argv helpers shared by every command-line driver (ffc_repro, the
// examples, perf_des).
//
// Parsing is strict where silence used to lie: numeric values must parse in
// full (std::from_chars), a flag refuses to consume a following "--token"
// as its value, an empty value is an explicit error, and every such failure
// is reported so the driver exits nonzero instead of running with a
// silently-wrong configuration. The determinism contract these flags serve
// (same --seed => same stdout at any --jobs) is docs/DETERMINISM.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

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

}  // namespace ffc::exec
