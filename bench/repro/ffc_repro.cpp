// ffc_repro -- the unified reproduction driver.
//
// Runs every experiment of EXPERIMENTS.md (TAB1, E1..E13, E13b, E14, E15)
// through exec::SweepRunner, collects their claim registries, and GENERATES
// the repo's headline artifacts:
//
//   REPRODUCTION.md  per-claim table: paper claim -> measured -> tolerance
//                    -> PASS/FAIL, plus environment and seed manifest
//   claims.json      the same data, schema ffc.claims.v1 (docs/CLAIMS.md)
//
// Flags:
//   --jobs N        fan experiments across N threads (0 = hardware); the
//                   artifacts are byte-identical at every N
//   --seed S        override the per-experiment sweep seeds: experiment i
//                   runs with derive_task_seed(S, i). Without --seed each
//                   experiment keeps its historical default, which is what
//                   the committed artifacts were generated with.
//   --output-dir D  where to write the two artifacts (default ".")
//   --verbose       echo every experiment's stdout (registry order)
//
// Exit code 0 iff every claim passed and both artifacts were written.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "exec/cli.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"

namespace {

using namespace ffc;

void usage(std::ostream& os) {
  os << "usage: ffc_repro [--jobs N] [--seed S] [--output-dir DIR] "
        "[--verbose]\n"
        "Runs the full Shenker '90 reproduction and generates "
        "REPRODUCTION.md + claims.json.\n";
}

struct Cli {
  repro::ReproOptions repro;
  std::string output_dir = ".";
  bool help = false;
  bool error = false;
};

/// Reports a flag value that take_flag_value accepted but that does not
/// parse as the flag's type.
void bad_value(Cli& cli, std::string_view flag, const std::string& value) {
  std::cerr << "ffc_repro: bad " << flag << " value '" << value << "'\n";
  cli.error = true;
}

Cli parse_cli(int argc, char** argv) {
  using exec::TakeResult;
  Cli cli;
  for (int i = 1; i < argc && !cli.error; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    TakeResult taken;
    // A malformed value (TakeResult::Error) has already been reported.
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg == "--verbose") {
      cli.repro.verbose = true;
    } else if ((taken = exec::take_flag_value("--jobs", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else if (!exec::parse_size(value, cli.repro.sweep.jobs)) {
        bad_value(cli, "--jobs", value);
      }
    } else if ((taken = exec::take_flag_value("--seed", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) {
        cli.error = true;
      } else if (!exec::parse_u64(value, cli.repro.sweep.base_seed)) {
        bad_value(cli, "--seed", value);
      }
      cli.repro.override_seeds = true;
    } else if ((taken = exec::take_flag_value("--output-dir", argc, argv, i,
                                              value)) != TakeResult::NoMatch) {
      cli.error = taken == TakeResult::Error;
      cli.output_dir = value;
    } else {
      std::cerr << "ffc_repro: unknown argument '" << arg << "'\n";
      cli.error = true;
    }
  }
  return cli;
}

bool write_file(const std::string& path,
                void (*writer)(const claims::ReproManifest&, std::ostream&),
                const claims::ReproManifest& manifest) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "ffc_repro: cannot open " << path << " for writing\n";
    return false;
  }
  writer(manifest, out);
  out.flush();
  if (!out) {
    std::cerr << "ffc_repro: write to " << path << " failed\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  if (cli.help) {
    usage(std::cout);
    return EXIT_SUCCESS;
  }
  if (cli.error) {
    usage(std::cerr);
    return EXIT_FAILURE;
  }

  const auto manifest = repro::run_reproduction(
      cli.repro, std::cerr, cli.repro.verbose ? &std::cout : nullptr);

  report::TextTable table({"experiment", "claims", "passed", "verdict"});
  table.set_title("ffc_repro: machine-checked reproduction of Shenker '90");
  for (const auto& exp : manifest.experiments) {
    table.add_row({exp.id + " - " + exp.title,
                   std::to_string(exp.claims.size()),
                   std::to_string(exp.claims.passed_count()),
                   exp.claims.all_passed() ? "PASS" : "FAIL"});
  }
  table.print(std::cout);
  std::cout << "\nclaims: " << manifest.passed_claims() << " / "
            << manifest.total_claims() << " passed across "
            << manifest.experiments.size() << " experiments -> "
            << (manifest.all_passed() ? "PASS" : "FAIL") << "\n";

  const std::string md_path = cli.output_dir + "/REPRODUCTION.md";
  const std::string json_path = cli.output_dir + "/claims.json";
  if (!write_file(md_path, &claims::write_reproduction_markdown, manifest) ||
      !write_file(json_path, &claims::write_claims_json, manifest)) {
    return EXIT_FAILURE;
  }
  std::cout << "\nwrote " << md_path << " and " << json_path << "\n";

  return manifest.all_passed() ? EXIT_SUCCESS : EXIT_FAILURE;
}
