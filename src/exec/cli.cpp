#include "exec/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

namespace ffc::exec {

TakeResult take_flag_value(std::string_view name, int argc, char** argv,
                           int& i, std::string& value) {
  const std::string_view arg = argv[i];
  if (arg == name) {
    if (i + 1 >= argc) {
      std::cerr << "error: " << name << " expects a value\n";
      return TakeResult::Error;
    }
    const std::string_view next = argv[i + 1];
    if (next.empty()) {
      std::cerr << "error: " << name << " has an empty value\n";
      return TakeResult::Error;
    }
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

}  // namespace ffc::exec
