// One INI front end for every declarative config dialect: scenario grids
// (scenario/spec.hpp, docs/PROTOCOLS.md) and hunt specs
// (search/hunt_spec.hpp, docs/SEARCH.md).
//
// The front end owns the lexical grammar (docs/PROTOCOLS.md "Lexical
// rules"): `[section]` headers and `key = value` lines, full-line `#`/`;`
// comments, trailing '\r' trimmed, and strict rejection of a malformed
// header, a key before any section, an empty key or value and a duplicate
// key or section. It also owns each dialect's vocabulary, given as a schema
// table (unknown sections and keys, missing required sections), and the
// typed value readers. Every parse diagnostic is a ConfigError reading
// "<file>:<line>: <message>". A dialect keeps only its domain checks, its
// cross-section rules and its canonical dump().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ffc::exec {

/// Parse or validation failure of a config file; what() carries
/// "<file>:<line>: <message>".
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using TokenSet = std::span<const std::string_view>;

/// One `key = value` line.
struct IniEntry {
  std::string key;
  std::string value;
  int line = 0;
};

/// One section as written; `seen` is false when the file omits it.
struct IniSection {
  std::vector<IniEntry> entries;
  int line = 0;
  bool seen = false;

  /// The entry for `key`, or nullptr.
  const IniEntry* find(std::string_view key) const;
};

/// One section of a dialect's schema.
struct IniSectionSchema {
  std::string_view name;
  bool required = false;
  /// Allowed keys. Empty: any identifier [a-z_][a-z0-9_]* is allowed, and
  /// any other key fails as "<key_noun> 'k' must match ...".
  TokenSet keys;
  std::string_view key_noun;
};

/// A lexed config file checked against its dialect's schema. The readers
/// below parse one entry's value, failing with "<file>:<line>: ...".
class IniDocument {
 public:
  /// Lexes `text` and checks it against `schema`, in table order: unknown
  /// or duplicate sections and lexical errors in line order first, then
  /// per schema section its required-ness and its keys. `filename` only
  /// labels diagnostics; `schema` must outlive the document.
  IniDocument(std::string_view text, std::string_view filename,
              std::span<const IniSectionSchema> schema);

  /// The section named `name`, which must be in the schema.
  const IniSection& section(std::string_view name) const;

  /// The entry for `key` in section `name`; fails "[name] must set 'key'"
  /// at the section's header (line 1 if the file omits the section).
  const IniEntry& require(std::string_view name, std::string_view key) const;

  /// The last line's number, counting the empty line after a final '\n':
  /// where whole-file diagnostics point.
  int end_line() const { return end_line_; }

  [[noreturn]] void fail(int line, const std::string& message) const;

  /// A finite number (exec::parse_double): one `item` of a list value, or
  /// by default (an empty item) the whole value.
  double number(const IniEntry& entry, std::string_view item = {}) const;
  /// An unsigned integer (exec::parse_size / exec::parse_u64); count()
  /// also fails "key 'k' must be >= <min>" below `min`.
  std::size_t count(const IniEntry& entry, std::size_t min = 0) const;
  std::uint64_t u64(const IniEntry& entry) const;
  /// A name matching [A-Za-z0-9_-]+; `noun` opens the diagnostic
  /// ("scenario name must match ...").
  const std::string& name(const IniEntry& entry, std::string_view noun) const;
  /// Fails "unknown <noun> '<value>' (expected ...)" unless `value` is
  /// one of `tokens`.
  void expect_token(int line, std::string_view noun, std::string_view value,
                    TokenSet tokens) const;
  /// The comma-separated items of the value, trimmed. Every list-valued
  /// key in both dialects is a sweep axis, so an empty item fails as
  /// "axis 'k' has an empty entry".
  std::vector<std::string> list(const IniEntry& entry) const;

 private:
  std::string filename_;
  std::span<const IniSectionSchema> schema_;
  std::vector<IniSection> sections_;  ///< parallel to schema_
  int end_line_ = 0;
};

/// Whether `value` is one of `tokens`.
bool one_of(std::string_view value, TokenSet tokens);

/// "a, b, c".
std::string join_tokens(TokenSet tokens);

/// Shortest round-trip decimal formatting (std::to_chars) -- the one
/// number formatting every canonical dump uses.
std::string format_double(double value);

/// format_double of each value, joined with ", ".
std::string format_list(const std::vector<double>& values);

/// The whole file at `path`; throws ConfigError("cannot read <kind> file:
/// <path>") if it cannot be opened.
std::string read_config_file(const std::string& path, std::string_view kind);

}  // namespace ffc::exec
