// Deterministic pseudo-random number generation for simulation.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64, the
// recommended pairing. A self-contained generator keeps the discrete-event
// simulator reproducible across standard libraries (std::mt19937's
// distributions are not bit-portable across implementations).
#pragma once

#include <array>
#include <cstdint>

namespace ffc::stats {

/// SplitMix64: used to expand a 64-bit seed into xoshiro's 256-bit state.
/// Also usable standalone as a fast, decent-quality generator.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast all-purpose 64-bit generator with period 2^256 - 1.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can also
/// be plugged into <random> distributions if ever needed.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state via SplitMix64 from a single 64-bit seed.
  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 random bits.
  result_type operator()() { return next(); }
  result_type next();

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Exponential variate with the given rate (mean 1/rate). Requires
  /// rate > 0. Never returns infinity (the underlying uniform is > 0).
  double exponential(double rate);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal variate (Marsaglia polar method).
  double normal();

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Jump ahead by 2^128 steps: yields a generator whose stream is
  /// independent of the original for any realistic draw count. Used to give
  /// each simulation component its own stream from one master seed. The
  /// returned child keeps the current stream position; this generator
  /// moves to jump(state). Constant time, no allocation.
  Xoshiro256 split();

  /// The state 2^128 transitions after `state`. The transition is linear
  /// over GF(2), so the jump is one fixed 256 x 256 bit matrix J: the jump
  /// polynomial of Blackman & Vigna evaluated at the transition. J is
  /// applied through a table of its images of every nibble, derived from
  /// that polynomial at compile time: 64 lookups and XORs of 4 words.
  static std::array<std::uint64_t, 4> jump(
      const std::array<std::uint64_t, 4>& state);

 private:
  std::array<std::uint64_t, 4> s_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace ffc::stats
