#include "oracles/xoshiro_jump.hpp"

#include <cstddef>

namespace ffc::oracles {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

void next(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

}  // namespace

std::array<std::uint64_t, 4> reference_jump(std::array<std::uint64_t, 4> s) {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
  for (std::uint64_t jump : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (jump & (std::uint64_t{1} << bit)) {
        for (std::size_t w = 0; w < 4; ++w) acc[w] ^= s[w];
      }
      next(s);
    }
  }
  return acc;
}

}  // namespace ffc::oracles
