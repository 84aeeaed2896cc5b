#include "probe.hpp"

#include <algorithm>
#include <numeric>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kScanEntries = 2000;                  // 8 KiB
constexpr std::size_t kNearEntries = std::size_t{1} << 17;  // 512 KiB
constexpr std::size_t kFarEntries = std::size_t{1} << 22;   // 16 MiB
constexpr std::size_t kLatencySteps = 2'000'000;
constexpr std::size_t kThroughputSteps = 2'000'000;
constexpr std::size_t kScans = 10000;
constexpr std::size_t kNearSteps = 1'000'000;
constexpr std::size_t kFarSteps = 50'000;
/// Seconds of each part on the reference host (a 4-core Xeon virtual
/// machine, GCC 12, RelWithDebInfo) at a quiet moment: the tenth
/// percentile of 586 probes taken over 13 minutes.
constexpr HostProbe::Sample kReference = {0.0054, 0.0093, 0.0050,
                                          0.0077, 0.0078, 0.0027};

/// next[i] is the successor of i on a single cycle through all n slots in
/// a fixed pseudo-random order (Sattolo's algorithm), so a chase visits
/// every slot before it repeats.
std::vector<std::uint32_t> random_cycle(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> next(n);
  std::iota(next.begin(), next.end(), std::uint32_t{0});
  std::uint64_t x = seed;
  for (std::size_t k = n - 1; k > 0; --k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[k], next[x % k]);
  }
  return next;
}

std::uint32_t chase(const std::vector<std::uint32_t>& next, std::size_t steps) {
  std::uint32_t p = 0;
  for (std::size_t k = 0; k < steps; ++k) p = next[p];
  return p;
}

}  // namespace

HostProbe::HostProbe()
    : scan_(kScanEntries),
      near_(random_cycle(kNearEntries, 0x9e3779b97f4a7c15ULL)),
      far_(random_cycle(kFarEntries, 0xd1b54a32d192ed03ULL)) {
  std::iota(scan_.begin(), scan_.end(), std::uint32_t{0});
}

double HostProbe::slowdown(const Sample& before, const Sample& after,
                           Part part) {
  if (part == kWhole) {
    double now = 0.0, reference = 0.0;
    for (std::size_t k = 0; k < kParts; ++k) {
      now += before[k] + after[k];
      reference += 2.0 * kReference[k];
    }
    return now / reference;
  }
  return (before[part] + after[part]) / (2.0 * kReference[part]);
}

std::size_t HostProbe::resident_bytes() const {
  return (scan_.size() + near_.size() + far_.size()) * sizeof(std::uint32_t);
}

HostProbe::Sample HostProbe::run() {
  Sample s{};
  std::size_t part = 0;
  double t = now_s();
  const auto lap = [&] {
    const double t1 = now_s();
    s[part++] = t1 - t;
    t = t1;
  };
  // Not compile-time constants, so the arithmetic cannot be folded away.
  const double one = 1.0 + 1e-30 * double(near_[1]);
  const std::uint32_t absent = std::uint32_t(kScanEntries) + near_[1] % 7;

  double x = one;  // one dependent chain: instruction latency
  for (std::size_t k = 0; k < kLatencySteps; ++k) x = x * 0.9999999 + 1e-7;
  lap();
  double acc[8];  // eight independent chains: instruction throughput
  std::fill(acc, acc + 8, one);
  for (std::size_t k = 0; k < kThroughputSteps; ++k) {
    for (double& a : acc) a = a * 0.9999999 + 1e-7;
  }
  lap();
  std::size_t found = 0;  // linear searches of a small array
  for (std::size_t k = 0; k < kScans; ++k) {
    found += std::size_t(std::find(scan_.begin(), scan_.end(),
                                   absent + std::uint32_t(k % 2)) -
                         scan_.begin());
  }
  lap();
  const std::uint32_t a = chase(near_, kNearSteps);
  lap();
  const std::uint32_t b = chase(far_, kFarSteps);
  lap();
  const std::uint64_t sum =
      std::accumulate(far_.begin(), far_.end(), std::uint64_t{0});
  lap();
  sink_ = x + std::accumulate(acc, acc + 8, 0.0) + double(found) + double(a) +
          double(b) + double(sum);
  return s;
}

}  // namespace perfbench
