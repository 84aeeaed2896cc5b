#include "exec/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

namespace ffc::exec {

namespace {

/// Parses a numeric flag value or reports an error.
bool parse_numeric_flag(std::string_view name, const std::string& value,
                        std::uint64_t& out) {
  if (parse_u64(value, out)) return true;
  std::cerr << "error: " << name << " expects an unsigned integer, got '"
            << value << "'\n";
  return false;
}

}  // namespace

TakeResult take_flag_value(std::string_view name, int argc, char** argv,
                           int& i, std::string& value) {
  const std::string_view arg = argv[i];
  if (arg == name) {
    if (i + 1 >= argc) {
      std::cerr << "error: " << name << " expects a value\n";
      return TakeResult::Error;
    }
    const std::string_view next = argv[i + 1];
    if (next.substr(0, 2) == "--") {
      std::cerr << "error: " << name << " expects a value, got flag '" << next
                << "'\n";
      return TakeResult::Error;
    }
    value = argv[++i];
    return TakeResult::Value;
  }
  if (arg.size() >= name.size() + 1 && arg.substr(0, name.size()) == name &&
      arg[name.size()] == '=') {
    value = std::string(arg.substr(name.size() + 1));
    if (value.empty()) {
      std::cerr << "error: " << name << "= has an empty value\n";
      return TakeResult::Error;
    }
    if (std::string_view(value).substr(0, 2) == "--") {
      std::cerr << "error: " << name << " expects a value, got flag '" << value
                << "'\n";
      return TakeResult::Error;
    }
    return TakeResult::Value;
  }
  return TakeResult::NoMatch;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc() || ptr != last) return false;
  out = value;
  return true;
}

bool parse_size(std::string_view text, std::size_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return false;
  if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
    if (value > std::numeric_limits<std::size_t>::max()) return false;
  }
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse_double(std::string_view text, double& out) {
  if (text.empty()) return false;
  double value = 0.0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || !std::isfinite(value)) return false;
  out = value;
  return true;
}

SweepCli parse_sweep_cli(int argc, char** argv, std::uint64_t default_seed) {
  SweepCli cli;
  cli.options.base_seed = default_seed;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    TakeResult taken;
    if ((taken = take_flag_value("--jobs", argc, argv, i, value)) !=
        TakeResult::NoMatch) {
      std::uint64_t jobs = 0;
      if (taken == TakeResult::Error ||
          !parse_numeric_flag("--jobs", value, jobs)) {
        cli.error = true;
      } else {
        cli.options.jobs = static_cast<std::size_t>(jobs);
      }
    } else if ((taken = take_flag_value("--seed", argc, argv, i, value)) !=
               TakeResult::NoMatch) {
      std::uint64_t seed = 0;
      if (taken == TakeResult::Error ||
          !parse_numeric_flag("--seed", value, seed)) {
        cli.error = true;
      } else {
        cli.options.base_seed = seed;
      }
    } else if ((taken = take_flag_value("--metrics-out", argc, argv, i,
                                        value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else {
        cli.metrics_out = value;
      }
    } else if (arg == "--help" || arg == "-h") {
      cli.help = true;
      std::cout << "usage: " << argv[0]
                << " [--jobs N] [--seed S] [--metrics-out FILE]\n"
                << "  --jobs N          sweep worker threads (0 = all "
                   "hardware threads; default 1)\n"
                << "  --seed S          master RNG seed (default "
                << default_seed << "); same seed => same output at any "
                   "--jobs\n"
                << "  --metrics-out F   write the JSON run manifest "
                   "(seeds, durations, DES counters) to F\n";
    } else {
      std::cerr << "warning: unknown argument '" << arg << "' ignored\n";
    }
  }
  return cli;
}

}  // namespace ffc::exec
