// The shared INI front end (src/exec/ini.hpp): each lexical and schema
// diagnostic once, at the layer that owns it, the typed value readers, and
// a seeded mutation fuzz over both dialects built on it (parse_scenario,
// parse_hunt). Dialect-specific rules stay in test_scenario.cpp and
// test_search.cpp. Lexical grammar in docs/PROTOCOLS.md "Lexical rules".
#include "exec/ini.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "search/hunt_spec.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::exec::ConfigError;
using ffc::exec::IniDocument;
using ffc::exec::IniEntry;
using ffc::exec::IniSectionSchema;

constexpr std::array<std::string_view, 2> kAlphaKeys = {"size", "label"};
constexpr std::array<IniSectionSchema, 3> kSchema = {{
    {"alpha", true, kAlphaKeys, {}},
    {"beta", false, {}, "axis name"},
    {"gamma", false, {}, "parameter name"},
}};

/// The ConfigError message of lexing `text` as "t.ini", or "" if none.
std::string error_of(std::string_view text) {
  try {
    const IniDocument doc(text, "t.ini", kSchema);
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(IniLexer, SplitsSectionsAndKeepsLines) {
  const IniDocument doc(
      "# comment\n; comment\n[alpha]\n  size =  4 \r\nlabel=a b\n\n[beta]\n"
      "x = 1, 2\n",
      "t.ini", kSchema);
  const ffc::exec::IniSection& alpha = doc.section("alpha");
  EXPECT_TRUE(alpha.seen);
  EXPECT_EQ(alpha.line, 3);
  ASSERT_EQ(alpha.entries.size(), 2u);
  EXPECT_EQ(alpha.entries[0].key, "size");
  EXPECT_EQ(alpha.entries[0].value, "4");  // blanks and '\r' trimmed
  EXPECT_EQ(alpha.entries[0].line, 4);
  EXPECT_EQ(alpha.find("label")->value, "a b");
  EXPECT_EQ(alpha.find("nope"), nullptr);
  EXPECT_FALSE(doc.section("gamma").seen);
  EXPECT_EQ(doc.end_line(), 9);  // the empty line after the final '\n'
}

TEST(IniLexer, LexicalDiagnostics) {
  EXPECT_EQ(error_of("[alpha\n"), "t.ini:1: malformed section header '[alpha'");
  EXPECT_EQ(error_of("size = 1\n"),
            "t.ini:1: key before any [section] header");
  EXPECT_EQ(error_of("[alpha]\nsize\n"),
            "t.ini:2: expected 'key = value', got 'size'");
  EXPECT_EQ(error_of("[alpha]\n = 1\n"), "t.ini:2: empty key");
  EXPECT_EQ(error_of("[alpha]\nsize =\n"),
            "t.ini:2: key 'size' has an empty value");
  EXPECT_EQ(error_of("[alpha]\nsize = 1\nsize = 2\n"),
            "t.ini:3: duplicate key 'size'");
  EXPECT_EQ(error_of("[alpha]\n[alpha]\n"),
            "t.ini:2: duplicate section [alpha]");
}

TEST(IniLexer, SchemaDiagnostics) {
  EXPECT_EQ(error_of("[alpha]\n[delta]\n"),
            "t.ini:2: unknown section [delta] (expected alpha, beta, or "
            "gamma)");
  EXPECT_EQ(error_of("[beta]\nx = 1\n"),
            "t.ini:3: missing required section [alpha]");
  EXPECT_EQ(error_of("[alpha]\nsizes = 1\n"),
            "t.ini:2: unknown key 'sizes' in [alpha]");
  EXPECT_EQ(error_of("[alpha]\n[beta]\nX = 1\n"),
            "t.ini:3: axis name 'X' must match [a-z_][a-z0-9_]*");
  EXPECT_EQ(error_of("[alpha]\n[gamma]\n9a = 1\n"),
            "t.ini:3: parameter name '9a' must match [a-z_][a-z0-9_]*");
}

TEST(IniReaders, ParseOrFailWithFileAndLine) {
  const IniDocument doc("[alpha]\nsize = 4\nlabel = x-1\n", "t.ini",
                        kSchema);
  const auto entry = [](std::string key, std::string value) {
    return IniEntry{std::move(key), std::move(value), 7};
  };
  const auto message = [](auto&& read) -> std::string {
    try {
      read();
    } catch (const ConfigError& error) {
      return error.what();
    }
    return "";
  };

  EXPECT_DOUBLE_EQ(doc.number(entry("k", "-2.5e-1")), -0.25);
  EXPECT_EQ(message([&] { doc.number(entry("k", "inf")); }),
            "t.ini:7: key 'k' expects a number, got 'inf'");
  EXPECT_EQ(message([&] { doc.number(entry("k", "1, 2"), "2x"); }),
            "t.ini:7: key 'k' expects a number, got '2x'");
  EXPECT_EQ(doc.count(entry("k", "12")), 12u);
  EXPECT_EQ(message([&] { doc.count(entry("k", "-1")); }),
            "t.ini:7: key 'k' expects an unsigned integer, got '-1'");
  EXPECT_EQ(doc.u64(entry("k", "18446744073709551615")),
            UINT64_C(18446744073709551615));
  EXPECT_EQ(message([&] { doc.u64(entry("k", "18446744073709551616")); }),
            "t.ini:7: key 'k' expects an unsigned integer, got "
            "'18446744073709551616'");
  EXPECT_EQ(doc.name(*doc.section("alpha").find("label"), "run name"), "x-1");
  EXPECT_EQ(message([&] { doc.name(entry("name", "a b"), "run name"); }),
            "t.ini:7: run name must match [A-Za-z0-9_-]+, got 'a b'");
  constexpr std::array<std::string_view, 2> kColors = {"red", "blue"};
  doc.expect_token(7, "color", "blue", kColors);
  EXPECT_EQ(message([&] { doc.expect_token(7, "color", "green", kColors); }),
            "t.ini:7: unknown color 'green' (expected red, blue)");
  EXPECT_EQ(doc.list(entry("k", " a ,b,  c")),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(message([&] { doc.list(entry("k", "a,,b")); }),
            "t.ini:7: axis 'k' has an empty entry");
  EXPECT_EQ(message([&] { doc.list(entry("k", "a,")); }),
            "t.ini:7: axis 'k' has an empty entry");
}

TEST(IniReaders, CanonicalNumberFormatting) {
  EXPECT_EQ(ffc::exec::format_double(0.1), "0.1");
  EXPECT_EQ(ffc::exec::format_double(1e-300), "1e-300");
  EXPECT_EQ(ffc::exec::format_double(-0.0), "-0");
  EXPECT_EQ(ffc::exec::format_list({1, 0.25, 3}), "1, 0.25, 3");
  EXPECT_EQ(ffc::exec::format_list({}), "");
}

TEST(IniReaders, UnreadableFileIsAConfigError) {
  try {
    ffc::exec::read_config_file("/nonexistent/x.ini", "demo");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_EQ(std::string(error.what()),
              "cannot read demo file: /nonexistent/x.ini");
  }
}

// ---- mutation fuzz over both dialects ---------------------------------------

/// A draw in [0, n) from SplitMix64, a bit-portable stream, so every host
/// fuzzes the same inputs.
struct Stream {
  ffc::stats::SplitMix64 rng;
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng.next() % n; }
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

struct Seed {
  std::string text;
  bool hunt = false;
};

/// One to three edits: a byte flip, a line deletion, a line duplication,
/// or a line spliced in from a config of the other dialect.
std::string mutate(const Seed& seed, const std::vector<Seed>& seeds,
                   Stream& rng) {
  static constexpr std::string_view kBytes =
      "[]=,#; \t\r\n-.e0123456789abcdefghijklmnopqrstuvwxyz_A";
  std::string text = seed.text;
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t k = 0; k < edits; ++k) {
    std::vector<std::string> lines = split_lines(text);
    switch (rng.below(4)) {
      case 0:
        if (!text.empty()) {
          text[rng.below(text.size())] = kBytes[rng.below(kBytes.size())];
        }
        continue;
      case 1:
        if (!lines.empty()) {
          lines.erase(lines.begin() + rng.below(lines.size()));
        }
        break;
      case 2:
        if (!lines.empty()) {
          const std::string copy = lines[rng.below(lines.size())];
          lines.insert(lines.begin() + rng.below(lines.size() + 1), copy);
        }
        break;
      default: {
        std::vector<const Seed*> donors;
        for (const Seed& other : seeds) {
          if (other.hunt != seed.hunt) donors.push_back(&other);
        }
        const std::vector<std::string> donor =
            split_lines(donors[rng.below(donors.size())]->text);
        lines.insert(lines.begin() + rng.below(lines.size() + 1),
                     donor[rng.below(donor.size())]);
        break;
      }
    }
    text = join_lines(lines);
  }
  return text;
}

/// Every outcome is a canonical spec or a located ConfigError; anything
/// else (another exception type, an unlocated message) fails the test.
template <typename Parse>
void check_outcome(const std::string& text, Parse parse, std::size_t& parsed,
                   std::size_t& rejected) {
  const std::size_t lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n') +
      (!text.empty() && text.back() != '\n' ? 1 : 0));
  try {
    const std::string canonical = parse(text, "fuzz.ini").dump();
    EXPECT_EQ(parse(canonical, "<dump>").dump(), canonical)
        << "dump is not a fixed point for input:\n" << text;
    ++parsed;
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    constexpr std::string_view kPrefix = "fuzz.ini:";
    std::size_t line = 0;
    std::size_t pos = kPrefix.size();
    while (pos < what.size() && what[pos] >= '0' && what[pos] <= '9') {
      line = line * 10 + static_cast<std::size_t>(what[pos++] - '0');
    }
    EXPECT_TRUE(what.rfind(kPrefix, 0) == 0 && pos > kPrefix.size() &&
                what.compare(pos, 2, ": ") == 0 && line >= 1 &&
                line <= lines + 1)
        << "unlocated diagnostic '" << what << "' for input:\n" << text;
    ++rejected;
  } catch (const std::exception& other) {
    ADD_FAILURE() << "non-ConfigError exception '" << other.what()
                  << "' for input:\n" << text;
  }
}

TEST(IniFuzz, MutatedCommittedConfigsParseOrFailLocated) {
  std::vector<std::filesystem::path> paths;
  for (const auto& file :
       std::filesystem::directory_iterator(FFC_SCENARIOS_DIR)) {
    if (file.path().extension() == ".ini") paths.push_back(file.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Seed> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    seeds.push_back({text.str(), text.str().find("[hunt]") !=
                                     std::string::npos});
  }
  ASSERT_TRUE(std::any_of(seeds.begin(), seeds.end(),
                          [](const Seed& s) { return s.hunt; }));
  ASSERT_TRUE(std::any_of(seeds.begin(), seeds.end(),
                          [](const Seed& s) { return !s.hunt; }));

  Stream rng{ffc::stats::SplitMix64(20240601)};
  std::size_t parsed = 0, rejected = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const std::string text =
        mutate(seeds[rng.below(seeds.size())], seeds, rng);
    check_outcome(text, ffc::scenario::parse_scenario, parsed, rejected);
    check_outcome(text, ffc::search::parse_hunt, parsed, rejected);
  }
  // Both outcomes must actually occur, or the fuzz proves nothing.
  EXPECT_GT(parsed, 400u);
  EXPECT_GT(rejected, 4000u);
}

}  // namespace
