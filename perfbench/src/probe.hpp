// How fast the shared host runs at a given moment, measured by a fixed
// piece of work.
//
// Other tenants of the host slow this one's code by up to 2x, in episodes
// that last from seconds to minutes. No statistic of a 25-second run
// removes an episode that covers the whole run, so raw times of the same
// code spread by a third between runs. The harness therefore times the
// probe before and after every repetition and divides the repetition's
// time by the host's slowdown over it: the probe's time over its time on
// the reference host. The result is the repetition's time at the
// reference host's speed.
//
// The probe is the benchmark's own code and never changes with the
// library, so a change to the library moves the normalized times and a
// change of host speed does not. Contention slows different kinds of work
// differently, so the probe has parts of different kinds, each timed on
// its own, and each workload divides its solution by the part that is made
// of the same kind of work as its hot loop. Set-ups, which allocate and
// build, are divided by the whole probe.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  enum Part : std::size_t {
    kLatency,     ///< one dependent floating-point chain
    kThroughput,  ///< eight independent floating-point chains
    kScan,        ///< linear searches of a small array
    kNearChase,   ///< a random pointer chase within a core's own cache
    kFarChase,    ///< a random pointer chase far beyond the caches
    kSweep,       ///< a sequential sweep of the same far-away memory
    kParts,
    kWhole = kParts,  ///< the sum of all parts
  };
  /// Seconds of each part of one probe.
  using Sample = std::array<double, kParts>;

  HostProbe();

  Sample run();

  /// The host's slowdown over a span that ran between two probes: the mean
  /// time of `part` in the two, over its time on the reference host.
  static double slowdown(const Sample& before, const Sample& after,
                         Part part);

  /// Bytes the probe keeps resident for the whole run.
  std::size_t resident_bytes() const;

 private:
  std::vector<std::uint32_t> scan_;  // fits the first-level cache
  std::vector<std::uint32_t> near_;  // a random cycle within a core's cache
  std::vector<std::uint32_t> far_;   // a random cycle far beyond it
  volatile double sink_ = 0.0;       // keeps the work observable
};

}  // namespace perfbench
