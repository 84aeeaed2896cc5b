// ffc_repro's command line (repro::parse_repro_cli): the sweep flags
// (--jobs/--seed/--metrics-out) with their strict value rules, the --only
// selector and the combinations it rules out, and a seeded mutation fuzz
// over all of them. Parse only: no test here runs an experiment or builds a
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "repro/experiments.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::repro::ReproCli;

/// Routes std::cerr into a buffer for its lifetime, so a test can read the
/// parser's diagnostic.
class CaptureCerr {
 public:
  CaptureCerr() : previous_(std::cerr.rdbuf(text_.rdbuf())) {}
  ~CaptureCerr() { std::cerr.rdbuf(previous_); }
  std::string text() const { return text_.str(); }

 private:
  std::ostringstream text_;
  std::streambuf* previous_;
};

/// Parses `args` as the arguments after the program name.
ReproCli parse(std::vector<std::string> args) {
  args.insert(args.begin(), "ffc_repro");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  return ffc::repro::parse_repro_cli(static_cast<int>(args.size()),
                                     argv.data());
}

bool rejected(std::vector<std::string> args) {
  CaptureCerr capture;
  const bool error = parse(std::move(args)).error;
  EXPECT_TRUE(!error || !capture.text().empty()) << "no diagnostic";
  return error;
}

std::vector<std::string> only_ids(const ReproCli& cli) {
  std::vector<std::string> ids;
  for (const auto* info : cli.only) ids.push_back(info->id);
  return ids;
}

// ---- the sweep flags --------------------------------------------------------
//
// The suite keeps its name: these are the sweep flags every sweep-enabled
// experiment has always taken, now parsed by ffc_repro.

TEST(SweepCli, ParsesJobsAndSeedBothForms) {
  auto cli = parse({"--jobs", "8", "--seed", "12345"});
  EXPECT_FALSE(cli.error);
  EXPECT_EQ(cli.repro.sweep.jobs, 8u);
  EXPECT_EQ(cli.repro.sweep.base_seed, 12345u);
  EXPECT_TRUE(cli.repro.override_seeds);

  cli = parse({"--jobs=4", "--seed=7"});
  EXPECT_FALSE(cli.error);
  EXPECT_EQ(cli.repro.sweep.jobs, 4u);
  EXPECT_EQ(cli.repro.sweep.base_seed, 7u);
}

TEST(SweepCli, DefaultsAreSerialWithGivenSeed) {
  // No --seed: each experiment keeps the default seed its registry row
  // gives (E5's is 1), under --only and in the full run alike.
  for (const auto& args : {std::vector<std::string>{},
                           std::vector<std::string>{"--only", "E5"}}) {
    const auto cli = parse(args);
    EXPECT_EQ(cli.repro.sweep.jobs, 1u);
    EXPECT_FALSE(cli.repro.override_seeds);
    EXPECT_FALSE(cli.help);
    EXPECT_FALSE(cli.error);
    EXPECT_TRUE(cli.metrics_out.empty());
    EXPECT_TRUE(cli.output_dir.empty());
  }
  const auto cli = parse({"--only", "E5"});
  ASSERT_EQ(cli.only.size(), 1u);
  EXPECT_EQ(cli.only[0]->default_seed, 1u);
}

// Regression: "--jobs --seed 5" used to consume "--seed" as the value of
// --jobs, silently parse it as 0 (= all hardware threads), and drop the
// seed. A flag-like token is never a value; the parse must fail loudly.
TEST(SweepCli, JobsRefusesFlagLikeValueInsteadOfEatingNextFlag) {
  EXPECT_TRUE(rejected({"--jobs", "--seed", "5"}));
}

TEST(SweepCli, JobsMissingValueAtEndOfLineIsAnError) {
  EXPECT_TRUE(rejected({"--jobs"}));
}

TEST(SweepCli, JobsEqualsEmptyIsAnError) { EXPECT_TRUE(rejected({"--jobs="})); }

TEST(SweepCli, NonNumericAndTrailingJunkValuesAreErrors) {
  EXPECT_TRUE(rejected({"--jobs", "junk"}));
  EXPECT_TRUE(rejected({"--seed", "5x"}));
  EXPECT_TRUE(rejected({"--jobs=1.5"}));
  EXPECT_TRUE(rejected({"--seed", "-3"}));
}

TEST(SweepCli, ErrorDoesNotCorruptEarlierOptions) {
  CaptureCerr capture;
  const auto cli = parse({"--seed", "99", "--jobs", "junk"});
  EXPECT_TRUE(cli.error);
  EXPECT_EQ(cli.repro.sweep.base_seed, 99u);  // parsed before the bad flag
}

TEST(SweepCli, ParsesMetricsOutBothForms) {
  auto cli = parse({"--only", "E5", "--metrics-out", "m.json"});
  EXPECT_FALSE(cli.error);
  EXPECT_EQ(cli.metrics_out, "m.json");

  cli = parse({"--metrics-out=run/m.json", "--jobs", "2", "--only=E12"});
  EXPECT_FALSE(cli.error);
  EXPECT_EQ(cli.metrics_out, "run/m.json");
  EXPECT_EQ(cli.repro.sweep.jobs, 2u);
}

TEST(SweepCli, MetricsOutRefusesFlagLikeOrMissingValue) {
  EXPECT_TRUE(rejected({"--only", "E5", "--metrics-out", "--jobs", "2"}));
  EXPECT_TRUE(rejected({"--only", "E5", "--metrics-out"}));
}

// Regression: the "--flag value" form refused a "--"-prefixed value, but
// "--flag=value" happily accepted one -- "--seed=--jobs" parsed "--jobs"
// with std::from_chars, failed, and at least errored by luck, while a
// string-valued flag would have silently swallowed it. Both forms must
// refuse flag-like values symmetrically.
TEST(SweepCli, EqualsFormRefusesFlagLikeValuesToo) {
  EXPECT_TRUE(rejected({"--seed=--jobs"}));
  EXPECT_TRUE(rejected({"--jobs=--seed"}));

  // String-valued flag: without the check this one would succeed and write
  // the manifest to a file literally named "--jobs".
  CaptureCerr capture;
  const auto cli = parse({"--only", "E5", "--metrics-out=--jobs"});
  EXPECT_TRUE(cli.error);
  EXPECT_TRUE(cli.metrics_out.empty());
}

// ---- the --only selector ----------------------------------------------------

TEST(ReproCli, OnlyKeepsTheOrderGiven) {
  const auto cli = parse({"--only", "E19,TAB1,E13b", "--jobs", "4"});
  EXPECT_FALSE(cli.error);
  EXPECT_EQ(only_ids(cli),
            (std::vector<std::string>{"E19", "TAB1", "E13b"}));
  EXPECT_EQ(parse({"--only=E1"}).only.size(), 1u);
}

TEST(ReproCli, OnlyRejectsUnknownEmptyAndRepeatedIds) {
  for (const char* list : {"E99", "e1", "E1 ", ",", "E1,", ",E1", "E1,,E2",
                           "E1,E1", "TAB1,E5,TAB1"}) {
    EXPECT_TRUE(rejected({"--only", list})) << list;
  }
  EXPECT_TRUE(rejected({"--only", ""}));
  EXPECT_TRUE(rejected({"--only="}));
  EXPECT_TRUE(rejected({"--only", "E1", "--only", "E2"}));
}

TEST(ReproCli, OnlyRefusesTheFullRunsFlags) {
  EXPECT_TRUE(rejected({"--only", "E1", "--output-dir", "out"}));
  EXPECT_TRUE(rejected({"--output-dir=out", "--only", "E1"}));
  EXPECT_TRUE(rejected({"--only", "E1", "--verbose"}));
  EXPECT_TRUE(rejected({"--verbose", "--only", "E1"}));
  EXPECT_FALSE(parse({"--output-dir", "out", "--verbose"}).error);
}

TEST(ReproCli, MetricsOutNeedsExactlyOneSweepEnabledId) {
  EXPECT_TRUE(rejected({"--metrics-out", "m.json"}));
  EXPECT_TRUE(rejected({"--only", "TAB1", "--metrics-out", "m.json"}));
  EXPECT_TRUE(rejected({"--only", "E5,E8", "--metrics-out", "m.json"}));
  EXPECT_FALSE(parse({"--only", "TAB1,E19", "--metrics-out", "m.json"}).error);
}

// An argument the driver does not know is an error, never a warning: a
// typo must not run the wrong thing.
TEST(ReproCli, UnknownArgumentIsAnError) {
  EXPECT_TRUE(rejected({"--whatever", "--jobs", "3"}));
  EXPECT_TRUE(rejected({"E1"}));
  EXPECT_TRUE(rejected({"--only", "E1", "stray"}));
}

// An empty value in the "--flag value" form is refused like "--flag=":
// `--output-dir ""` would otherwise write to "/REPRODUCTION.md".
TEST(ReproCli, EmptySeparateValueIsAnError) {
  EXPECT_TRUE(rejected({"--output-dir", ""}));
  EXPECT_TRUE(rejected({"--only", "E5", "--metrics-out", ""}));
}

TEST(ReproCli, HelpParses) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"--only", "E1", "-h"}).help);
}

// ---- mutation fuzz ----------------------------------------------------------

/// A draw in [0, n) from SplitMix64, a bit-portable stream, so every host
/// fuzzes the same inputs.
struct Stream {
  ffc::stats::SplitMix64 rng;
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng.next() % n; }
};

/// One to four edits of a valid argv: insert a token from the pool,
/// delete one, replace one, glue a flag to the next token with '=', split
/// a token at its '=', flip one byte, or append ",ID" to a token.
std::vector<std::string> mutate(std::vector<std::string> args, Stream& rng) {
  static const std::vector<std::string> kTokens = {
      "--only", "--jobs", "--seed", "--metrics-out", "--output-dir",
      "--verbose", "--help", "-h", "--", "-", "=", "",
      "E1", "TAB1", "E5", "E13b", "E19", "E99", "e1", "E1,E5", "TAB1,E1,E19",
      ",", "E1,", ",E8", "E5,,E8", "E5,E5", "0", "1", "4",
      "18446744073709551615", "18446744073709551616", "-3", "1.5", " 7",
      "junk", "m.json", "out", "--only=E5", "--jobs=", "--seed=--jobs",
      "--metrics-out=m.json", "--output-dir=.", "--only=,"};
  static const std::vector<std::string> kIds = {"E1",  "TAB1", "E5", "E13b",
                                                "E19", "E99",  "e1", ""};
  static constexpr std::string_view kBytes = "-=,E0123456789bTAB ";
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t k = 0; k < edits; ++k) {
    const std::size_t at = rng.below(args.size() + 1);
    switch (rng.below(7)) {
      case 0:
        args.insert(args.begin() + at, kTokens[rng.below(kTokens.size())]);
        break;
      case 1:
        if (at < args.size()) args.erase(args.begin() + at);
        break;
      case 2:
        if (at < args.size()) args[at] = kTokens[rng.below(kTokens.size())];
        break;
      case 3:
        if (at + 1 < args.size()) {
          args[at] += "=" + args[at + 1];
          args.erase(args.begin() + at + 1);
        }
        break;
      case 4:
        if (at < args.size()) {
          const std::size_t eq = args[at].find('=');
          if (eq != std::string::npos) {
            args.insert(args.begin() + at + 1, args[at].substr(eq + 1));
            args[at].resize(eq);
          }
        }
        break;
      case 5:
        if (at < args.size() && !args[at].empty()) {
          args[at][rng.below(args[at].size())] =
              kBytes[rng.below(kBytes.size())];
        }
        break;
      default:
        if (at < args.size()) {
          args[at] += "," + kIds[rng.below(kIds.size())];
        }
        break;
    }
  }
  return args;
}

// Every mutated argv either parses into a consistent command line or is
// rejected with a diagnostic; no input may crash, hang (the ctest TIMEOUT)
// or throw.
TEST(ReproCliFuzz, MutatedArgvParsesOrFailsWithDiagnostic) {
  const std::vector<std::vector<std::string>> seeds = {
      {},
      {"--jobs", "4", "--output-dir", "out"},
      {"--seed=42", "--verbose"},
      {"--only", "TAB1,E1"},
      {"--only=E5", "--jobs=4", "--seed", "42", "--metrics-out", "m.json"},
      {"--only", "E19,E13b", "--seed", "7"},
  };
  Stream rng{ffc::stats::SplitMix64(20261019)};
  std::size_t parsed = 0, rejected_count = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    const auto args = mutate(seeds[rng.below(seeds.size())], rng);
    std::string shown;
    for (const auto& arg : args) shown += " '" + arg + "'";
    CaptureCerr capture;
    ReproCli cli;
    try {
      cli = parse(args);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw '" << e.what() << "' for argv" << shown;
      continue;
    }
    if (cli.error) {
      EXPECT_FALSE(capture.text().empty()) << "no diagnostic for" << shown;
      ++rejected_count;
      continue;
    }
    EXPECT_TRUE(capture.text().empty()) << "diagnostic on a parse of" << shown;
    ++parsed;
    // A parse that succeeds obeys every combination rule.
    std::vector<std::string> ids = only_ids(cli);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << shown;
    if (!cli.only.empty()) {
      EXPECT_TRUE(cli.output_dir.empty()) << shown;
      EXPECT_FALSE(cli.verbose) << shown;
    }
    if (!cli.metrics_out.empty()) {
      EXPECT_EQ(std::count_if(cli.only.begin(), cli.only.end(),
                              [](const auto* info) {
                                return info->sweep_enabled;
                              }),
                1)
          << shown;
    }
  }
  // Both outcomes must actually occur, or the fuzz proves nothing.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected_count, 5000u);
}

}  // namespace
