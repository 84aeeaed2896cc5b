// The xoshiro256 2^128 jump as Blackman & Vigna publish it: 256 generator
// transitions, XOR-accumulating the state at each set bit of the jump
// polynomial. The tests' reference for Xoshiro256::jump's table-driven form.
#pragma once

#include <array>
#include <cstdint>

namespace ffc::oracles {

/// The xoshiro256 state 2^128 transitions after `state`.
std::array<std::uint64_t, 4> reference_jump(std::array<std::uint64_t, 4> state);

}  // namespace ffc::oracles
