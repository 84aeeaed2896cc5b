// Microbenchmarks: the eigensolver used by the stability analyses.
#include <benchmark/benchmark.h>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace {

ffc::linalg::Matrix make_matrix(std::size_t n) {
  ffc::linalg::Matrix a(n, n);
  double v = 0.37;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      v = std::fmod(v * 29.17 + 0.71, 1.0);
      a(i, j) = v - 0.5;
    }
  }
  return a;
}

void BM_Eigenvalues(benchmark::State& state) {
  const auto a = make_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ffc::linalg::eigenvalues(a));
  }
}
BENCHMARK(BM_Eigenvalues)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Hessenberg(benchmark::State& state) {
  const auto a = make_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ffc::linalg::hessenberg(a));
  }
}
BENCHMARK(BM_Hessenberg)->Arg(16)->Arg(64);

}  // namespace
