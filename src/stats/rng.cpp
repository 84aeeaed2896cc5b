#include "stats/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace ffc::stats {

namespace {

using State = std::array<std::uint64_t, 4>;

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One state word of the 64 unit states whose set bit lies in one word,
/// bit-sliced: bit j of lane[b] is bit b of this word in the unit state
/// with only bit j of that word set. The shifts, rotations and XORs act
/// lane-wise, so one jump_by_polynomial over Lanes jumps all 64 unit
/// states at once.
struct Lanes {
  // A plain array: std::array's operator[] calls would count against the
  // compiler's constant-evaluation budget.
  std::uint64_t lane[64] = {};

  constexpr Lanes operator<<(int k) const {
    Lanes r;
    for (int b = k; b < 64; ++b) r.lane[b] = lane[b - k];
    return r;
  }
  constexpr Lanes& operator^=(const Lanes& o) {
    for (int b = 0; b < 64; ++b) lane[b] ^= o.lane[b];
    return *this;
  }
};

constexpr Lanes rotl(const Lanes& x, int k) {
  Lanes r;
  for (int b = 0; b < 64; ++b) r.lane[(b + k) % 64] = x.lane[b];
  return r;
}

/// One xoshiro256 state transition T: next() without the output, and the
/// jump table's derivation over Lanes.
template <class Word>
constexpr void step(std::array<Word, 4>& s) {
  const Word t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

/// J s for J = p(T), the jump polynomial p of xoshiro256 (Blackman & Vigna,
/// ACM TOMS 47(4), 2021): T^(2^128) as a polynomial in T of degree < 256,
/// evaluated by one XOR of T^j s per set coefficient j.
constexpr std::array<Lanes, 4> jump_by_polynomial(std::array<Lanes, 4> s) {
  constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<Lanes, 4> acc{};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (std::uint64_t{1} << bit)) {
        for (std::size_t w = 0; w < 4; ++w) acc[w] ^= s[w];
      }
      step(s);
    }
  }
  return acc;
}

/// image[j] = J applied to the unit state with only bit j of word `word`
/// set (bit b of word w is state bit 64 w + b).
using UnitImages = std::array<State, 64>;

constexpr UnitImages unit_images(std::size_t word) {
  std::array<Lanes, 4> units{};
  for (int b = 0; b < 64; ++b) units[word].lane[b] = std::uint64_t{1} << b;
  const std::array<Lanes, 4> jumped = jump_by_polynomial(units);
  UnitImages image{};
  for (std::size_t j = 0; j < 64; ++j) {
    for (std::size_t w = 0; w < 4; ++w) {
      for (int b = 0; b < 64; ++b) {
        image[j][w] |= ((jumped[w].lane[b] >> j) & 1) << b;
      }
    }
  }
  return image;
}

// One constant evaluation per word keeps each inside the compiler's
// operation budget.
constexpr UnitImages kWord0Images = unit_images(0);
constexpr UnitImages kWord1Images = unit_images(1);
constexpr UnitImages kWord2Images = unit_images(2);
constexpr UnitImages kWord3Images = unit_images(3);

/// J over GF(2), by nibbles: kJumpTable[p][v] = J applied to the state
/// whose only set bits are v at state bits 4p .. 4p + 3. J is linear, so
/// J s is the XOR of the 64 rows s's nibbles select. 64 x 16 states, 32 KB.
using JumpTable = std::array<std::array<State, 16>, 64>;

constexpr JumpTable make_jump_table() {
  const UnitImages* images[4] = {&kWord0Images, &kWord1Images, &kWord2Images,
                                 &kWord3Images};
  JumpTable table{};
  for (std::size_t p = 0; p < 64; ++p) {
    const UnitImages& image = *images[p / 16];
    for (std::size_t v = 0; v < 16; ++v) {
      for (std::size_t b = 0; b < 4; ++b) {
        if ((v >> b) & 1) {
          for (std::size_t w = 0; w < 4; ++w) {
            table[p][v][w] ^= image[4 * (p % 16) + b][w];
          }
        }
      }
    }
  }
  return table;
}

// Constant-initialized: no run-time construction, so concurrent first
// splits (SweepRunner workers) race on nothing.
constexpr JumpTable kJumpTable = make_jump_table();

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Xoshiro256::result_type Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  step(s_);
  return result;
}

double Xoshiro256::uniform01() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("uniform: lo must be < hi");
  return lo + (hi - lo) * uniform01();
}

double Xoshiro256::exponential(double rate) {
  if (!(rate > 0)) throw std::invalid_argument("exponential: rate must be > 0");
  // 1 - U is in (0, 1], so the log argument is never zero.
  return -std::log1p(-uniform01()) / rate;
}

std::uint64_t Xoshiro256::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t x;
  do {
    x = next();
  } while (x >= limit);
  return x % n;
}

double Xoshiro256::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

bool Xoshiro256::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("bernoulli: p must be in [0, 1]");
  }
  return uniform01() < p;
}

std::array<std::uint64_t, 4> Xoshiro256::jump(
    const std::array<std::uint64_t, 4>& state) {
  State acc{0, 0, 0, 0};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t q = 0; q < 16; ++q) {
      const State& row = kJumpTable[16 * w + q][(state[w] >> (4 * q)) & 0xf];
      for (std::size_t k = 0; k < 4; ++k) acc[k] ^= row[k];
    }
  }
  return acc;
}

Xoshiro256 Xoshiro256::split() {
  Xoshiro256 child = *this;  // child keeps the current stream position
  s_ = jump(s_);             // this generator lands 2^128 ahead
  return child;
}

}  // namespace ffc::stats
