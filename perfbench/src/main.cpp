// perfbench: runs one benchmark workload and writes its measurements as one
// JSON document on stdout (perfbench/run.py is the entry point users run).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--jobs J] [--spec FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

using perfbench::Harness;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "certify|des_fairshare|closed_loop|hunt --seed N --seconds S "
               "--trace 0|1 [--jobs J] [--spec FILE]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20 ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(s);
  } catch (const std::out_of_range&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 &&
               n <= 3600) {
      opt.seconds = double(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--jobs" && parse_u64(value, n) && n >= 1 && n <= 64) {
      opt.jobs = n;
    } else if (flag == "--spec") {
      opt.spec = value;
    } else {
      return usage("bad argument");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  perfbench::Workload workload = nullptr;
  if (opt.workload == "certify") workload = perfbench::run_certify;
  if (opt.workload == "des_fairshare") workload = perfbench::run_des_fairshare;
  if (opt.workload == "closed_loop") workload = perfbench::run_closed_loop;
  if (opt.workload == "hunt") workload = perfbench::run_hunt;
  if (workload == nullptr) return usage("unknown workload");

  Harness harness(opt);
  try {
    workload(harness);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  harness.write(std::cout);
  return harness.failed() ? 1 : 0;
}
