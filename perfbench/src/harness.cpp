#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <string>

namespace perfbench {

namespace {

constexpr std::size_t kKeptFailures = 8;

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (v != v || v == std::numeric_limits<double>::infinity() ||
      v == -std::numeric_limits<double>::infinity()) {
    os << "null";
  } else {
    os << v;
  }
}

void write_array(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k) os << ',';
    write_number(os, v[k]);
  }
  os << ']';
}

double seconds_of(const timeval& tv) {
  return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
}

}  // namespace

Harness::Harness(Options options) : options_(std::move(options)) {}

bool Harness::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < kKeptFailures) failures_.push_back(what);
  }
  return ok;
}

void Harness::value(const std::string& name, double v) { values_[name] = v; }

void Harness::expect_same(const std::string& name, double v) {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    check(it->second == v, name + " differs between repetitions");
  }
  values_[name] = v;
}

void Harness::fingerprint(std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    digest_ ^= (bits >> (8 * byte)) & 0xffU;
    digest_ *= 1099511628211ULL;  // FNV-1a prime
  }
}

void Harness::end_fingerprint(std::size_t k) {
  if (k == 0) {
    fingerprint_ = digest_;
  } else {
    check(digest_ == fingerprint_,
          "repetition " + std::to_string(k) + " produced different outputs");
  }
  digest_ = kFnvBasis;
}

void Harness::fingerprint(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fingerprint(bits);
}

void Harness::begin_run(const char* label, bool traced) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(traced);
  if (!traced) return;
  tracer.set_run(static_cast<std::uint32_t>(run_labels_.size()));
  run_labels_.emplace_back(label);
}

double Harness::median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Harness::record(double setup, double wall, bool traced) {
  const HostProbe::Sample& before = probes_[probes_.size() - 2];
  const HostProbe::Sample& after = probes_.back();
  setup_s_.push_back(setup);
  setup_norm_s_.push_back(
      setup / HostProbe::slowdown(before, after, HostProbe::kWhole));
  if (traced) {
    wall_traced_s_.push_back(wall);
    return;
  }
  const double slowdown = HostProbe::slowdown(before, after, probe_part_);
  wall_s_.push_back(wall);
  wall_norm_s_.push_back(wall / slowdown);
  slowdown_.push_back(slowdown);
}

double Harness::peak_rss_mb() const {
  // VmHWM, not getrusage's ru_maxrss: after exec, ru_maxrss still holds the
  // peak of the process image exec replaced (the Python launcher's).
  std::ifstream status("/proc/self/status");
  std::string line;
  double kib = 0.0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) kib = std::strtod(line.c_str() + 6, nullptr);
  }
  return (kib * 1024.0 - double(probe_.resident_bytes())) / (1024.0 * 1024.0);
}

void Harness::write(std::ostream& os) const {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"workload\":";
  write_string(os, options_.workload);
  os << ",\"seed\":" << options_.seed << ",\"jobs\":" << options_.jobs
     << ",\"traced\":" << (options_.trace ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"failures\":[";
  for (std::size_t k = 0; k < failures_.size(); ++k) {
    if (k) os << ',';
    write_string(os, failures_[k]);
  }
  os << "],\"fingerprint\":\"" << std::hex << fingerprint_ << std::dec
     << "\",\"setup_batch\":" << setup_batch_ << ",\"setup_s\":";
  write_array(os, setup_s_);
  os << ",\"wall_s\":";
  write_array(os, wall_s_);
  os << ",\"wall_traced_s\":";
  write_array(os, wall_traced_s_);
  os << ",\"setup_norm_s\":";
  write_array(os, setup_norm_s_);
  os << ",\"wall_norm_s\":";
  write_array(os, wall_norm_s_);
  os << ",\"slowdown\":";
  write_array(os, slowdown_);
  os << ",\"probe\":[";
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    if (k) os << ',';
    write_array(os, std::vector<double>(probes_[k].begin(), probes_[k].end()));
  }
  os << "],\"peak_rss_mb\":"
     << (peak_rss_mb_ > 0.0 ? peak_rss_mb_ : peak_rss_mb())
     << ",\"cpu_s\":"
     << seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime)
     << ",\"minor_faults\":" << usage.ru_minflt << ",\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    if (!first) os << ',';
    first = false;
    write_string(os, name);
    os << ':';
    write_number(os, v);
  }
  os << "},\"runs\":[";
  for (std::size_t k = 0; k < run_labels_.size(); ++k) {
    if (k) os << ',';
    write_string(os, run_labels_[k]);
  }
  os << "],\"spans\":";
  Tracer::instance().write_json(os);
  os << "}\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace perfbench
