// ffc_repro -- the reproduction driver, and the one way to run a single
// experiment.
//
// The full run executes every experiment of EXPERIMENTS.md (TAB1, E1..E13,
// E13b, E14, E15, E16, E18, E19) through exec::SweepRunner, collects their
// claim registries, and GENERATES the repo's headline artifacts:
//
//   REPRODUCTION.md  per-claim table: paper claim -> measured -> tolerance
//                    -> PASS/FAIL, plus environment and seed manifest
//   claims.json      the same data, schema ffc.claims.v1 (docs/CLAIMS.md)
//
// `--only ID[,ID...]` instead runs the listed experiments one after another,
// in the order given, each printing its tables to stdout; it writes no
// artifact. The flags are listed in usage() below.
//
// Exit code 0 iff every claim of every experiment run passed and every
// artifact (the two files, or a --metrics-out manifest) was written.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "report/table.hpp"
#include "repro/experiments.hpp"

namespace {

using namespace ffc;

void usage(std::ostream& os) {
  os << "usage: ffc_repro [--jobs N] [--seed S] [--output-dir DIR] "
        "[--verbose]\n"
        "       ffc_repro --only ID[,ID...] [--jobs N] [--seed S] "
        "[--metrics-out FILE]\n"
        "Runs the full Shenker '90 reproduction and generates "
        "REPRODUCTION.md + claims.json,\n"
        "or, with --only, runs the listed experiments in the order given "
        "and prints their stdout.\n"
        "  --only IDS         comma-separated experiment ids:";
  for (const auto& info : repro::all_experiments()) os << ' ' << info.id;
  os << "\n"
        "  --jobs N           full run: experiments fanned across N threads;"
        " --only: the inner\n"
        "                     sweep's threads (0 = all hardware threads; "
        "default 1)\n"
        "  --seed S           full run: experiment i's inner seed is "
        "derive_task_seed(S, i);\n"
        "                     --only: S is each listed experiment's inner "
        "seed. Absent: each\n"
        "                     experiment's default seed\n"
        "  --output-dir DIR   full run: where the two artifacts go "
        "(default .)\n"
        "  --verbose          full run: echo every experiment's stdout\n"
        "  --metrics-out FILE --only with exactly one sweep-enabled id: "
        "write its sweep's\n"
        "                     JSON run manifest to FILE\n";
}

/// --only: each selected experiment against std::cout/std::cerr, in the
/// order given. A sweep-enabled one runs its inner sweep at --jobs, with
/// --seed as its base seed or else its default seed.
int run_only(const repro::ReproCli& cli) {
  bool ok = true;
  for (const repro::ExperimentInfo* info : cli.only) {
    repro::ExperimentContext ctx{std::cout, std::cerr, {}, {}, {}, false, {}};
    if (info->sweep_enabled) {
      ctx.sweep.jobs = cli.repro.sweep.jobs;
      ctx.sweep.base_seed = cli.repro.override_seeds
                                ? cli.repro.sweep.base_seed
                                : info->default_seed;
      ctx.metrics_out = cli.metrics_out;
    }
    info->run(ctx);
    ok = ok && ctx.claims.all_passed() && !ctx.io_error;
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
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
  const repro::ReproCli cli = repro::parse_repro_cli(argc, argv);
  if (cli.help) {
    usage(std::cout);
    return EXIT_SUCCESS;
  }
  if (cli.error) {
    usage(std::cerr);
    return EXIT_FAILURE;
  }
  if (!cli.only.empty()) return run_only(cli);

  const auto manifest = repro::run_reproduction(
      cli.repro, std::cerr, cli.verbose ? &std::cout : nullptr);

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

  const std::string dir = cli.output_dir.empty() ? "." : cli.output_dir;
  const std::string md_path = dir + "/REPRODUCTION.md";
  const std::string json_path = dir + "/claims.json";
  if (!write_file(md_path, &claims::write_reproduction_markdown, manifest) ||
      !write_file(json_path, &claims::write_claims_json, manifest)) {
    return EXIT_FAILURE;
  }
  std::cout << "\nwrote " << md_path << " and " << json_path << "\n";

  return manifest.all_passed() ? EXIT_SUCCESS : EXIT_FAILURE;
}
