#include "exec/ini.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <sstream>

#include "exec/cli.hpp"

namespace ffc::exec {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

bool valid_identifier(std::string_view key) {
  if (key.empty()) return false;
  for (char c : key) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return (key.front() >= 'a' && key.front() <= 'z') || key.front() == '_';
}

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

}  // namespace

const IniEntry* IniSection::find(std::string_view key) const {
  for (const IniEntry& entry : entries) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

IniDocument::IniDocument(std::string_view text, std::string_view filename,
                         std::span<const IniSectionSchema> schema)
    : filename_(filename), schema_(schema), sections_(schema.size()) {
  // ---- lex: split into sections, strictly ---------------------------------
  IniSection* current = nullptr;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t newline = text.find('\n', pos);
    const std::size_t end =
        newline == std::string_view::npos ? text.size() : newline;
    const std::string_view line = trim(text.substr(pos, end - pos));
    ++line_no;
    pos = end + 1;
    if (newline == std::string_view::npos && line.empty()) break;
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        fail(line_no, "malformed section header '" + std::string(line) + "'");
      }
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      std::size_t index = 0;
      while (index < schema_.size() && schema_[index].name != name) ++index;
      if (index == schema_.size()) {
        std::string expected;
        for (std::size_t i = 0; i < schema_.size(); ++i) {
          if (i > 0) expected += ", ";
          if (i > 0 && i + 1 == schema_.size()) expected += "or ";
          expected += schema_[i].name;
        }
        fail(line_no, "unknown section [" + std::string(name) +
                          "] (expected " + expected + ")");
      }
      IniSection& section = sections_[index];
      if (section.seen) {
        fail(line_no, "duplicate section [" + std::string(name) + "]");
      }
      section.seen = true;
      section.line = line_no;
      current = &section;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(line_no, "expected 'key = value', got '" + std::string(line) + "'");
    }
    if (current == nullptr) fail(line_no, "key before any [section] header");
    const std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) fail(line_no, "empty key");
    if (value.empty()) fail(line_no, "key '" + key + "' has an empty value");
    if (current->find(key) != nullptr) {
      fail(line_no, "duplicate key '" + key + "'");
    }
    current->entries.push_back({key, value, line_no});
  }
  end_line_ = line_no;

  // ---- schema: required sections and per-section vocabulary ---------------
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    const IniSectionSchema& rule = schema_[i];
    const IniSection& section = sections_[i];
    if (rule.required && !section.seen) {
      fail(end_line_,
           "missing required section [" + std::string(rule.name) + "]");
    }
    for (const IniEntry& e : section.entries) {
      if (rule.keys.empty()) {
        if (!valid_identifier(e.key)) {
          fail(e.line, std::string(rule.key_noun) + " '" + e.key +
                           "' must match [a-z_][a-z0-9_]*");
        }
      } else if (!one_of(e.key, rule.keys)) {
        fail(e.line, "unknown key '" + e.key + "' in [" +
                         std::string(rule.name) + "]");
      }
    }
  }
}

const IniSection& IniDocument::section(std::string_view name) const {
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return sections_[i];
  }
  throw std::logic_error("IniDocument: no section [" + std::string(name) +
                         "] in the schema");
}

const IniEntry& IniDocument::require(std::string_view name,
                                     std::string_view key) const {
  const IniSection& sec = section(name);
  if (const IniEntry* entry = sec.find(key)) return *entry;
  fail(sec.seen ? sec.line : 1,
       "[" + std::string(name) + "] must set '" + std::string(key) + "'");
}

void IniDocument::fail(int line, const std::string& message) const {
  std::ostringstream out;
  out << filename_ << ":" << line << ": " << message;
  throw ConfigError(out.str());
}

double IniDocument::number(const IniEntry& entry,
                           std::string_view item) const {
  if (item.empty()) item = entry.value;
  double out = 0.0;
  if (!parse_double(item, out)) {
    fail(entry.line, "key '" + entry.key + "' expects a number, got '" +
                         std::string(item) + "'");
  }
  return out;
}

std::size_t IniDocument::count(const IniEntry& entry, std::size_t min) const {
  std::size_t out = 0;
  if (!parse_size(entry.value, out)) {
    fail(entry.line, "key '" + entry.key +
                         "' expects an unsigned integer, got '" +
                         entry.value + "'");
  }
  if (out < min) {
    fail(entry.line,
         "key '" + entry.key + "' must be >= " + std::to_string(min));
  }
  return out;
}

std::uint64_t IniDocument::u64(const IniEntry& entry) const {
  std::uint64_t out = 0;
  if (!parse_u64(entry.value, out)) {
    fail(entry.line, "key '" + entry.key +
                         "' expects an unsigned integer, got '" +
                         entry.value + "'");
  }
  return out;
}

const std::string& IniDocument::name(const IniEntry& entry,
                                     std::string_view noun) const {
  if (!valid_name(entry.value)) {
    fail(entry.line, std::string(noun) +
                         " must match [A-Za-z0-9_-]+, got '" + entry.value +
                         "'");
  }
  return entry.value;
}

void IniDocument::expect_token(int line, std::string_view noun,
                               std::string_view value,
                               TokenSet tokens) const {
  if (!one_of(value, tokens)) {
    fail(line, "unknown " + std::string(noun) + " '" + std::string(value) +
                   "' (expected " + join_tokens(tokens) + ")");
  }
}

std::vector<std::string> IniDocument::list(const IniEntry& entry) const {
  std::vector<std::string> out;
  const std::string_view value = entry.value;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = value.find(',', start);
    const std::size_t end =
        comma == std::string_view::npos ? value.size() : comma;
    out.emplace_back(trim(value.substr(start, end - start)));
    if (out.back().empty()) {
      fail(entry.line, "axis '" + entry.key + "' has an empty entry");
    }
    if (comma == std::string_view::npos) return out;
    start = comma + 1;
  }
}

bool one_of(std::string_view value, TokenSet tokens) {
  return std::find(tokens.begin(), tokens.end(), value) != tokens.end();
}

std::string join_tokens(TokenSet tokens) {
  std::string out;
  for (std::string_view token : tokens) {
    if (!out.empty()) out += ", ";
    out += token;
  }
  return out;
}

std::string format_double(double value) {
  std::array<char, 64> buffer;
  const auto [ptr, ec] =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  if (ec != std::errc()) return "nan";
  return std::string(buffer.data(), ptr);
}

std::string format_list(const std::vector<double>& values) {
  std::string out;
  for (double value : values) {
    if (!out.empty()) out += ", ";
    out += format_double(value);
  }
  return out;
}

std::string read_config_file(const std::string& path, std::string_view kind) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError("cannot read " + std::string(kind) + " file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace ffc::exec
