// Microbenchmarks: analytic queue-length evaluation (the inner loop of
// every model step) for FIFO and Fair Share across gateway fan-in, and the
// tie-run ordering of a tie-sensitive JVP.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "queueing/discipline.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "stats/rng.hpp"

namespace {

std::vector<double> make_rates(std::size_t n) {
  ffc::stats::Xoshiro256 rng(7);
  std::vector<double> r(n);
  for (double& x : r) x = rng.uniform(0.0, 0.9 / static_cast<double>(n));
  return r;
}

void BM_FifoQueueLengths(benchmark::State& state) {
  const auto rates = make_rates(static_cast<std::size_t>(state.range(0)));
  ffc::queueing::Fifo fifo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.queue_lengths(rates, 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FifoQueueLengths)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_FairShareQueueLengths(benchmark::State& state) {
  const auto rates = make_rates(static_cast<std::size_t>(state.range(0)));
  ffc::queueing::FairShare fs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.queue_lengths(rates, 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FairShareQueueLengths)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_FairShareDecompose(benchmark::State& state) {
  const auto rates = make_rates(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ffc::queueing::FairShare::decompose(rates));
  }
}
BENCHMARK(BM_FairShareDecompose)->Arg(8)->Arg(64);

// One tie run of 10^4 rates (a max-min-fair bottleneck) ordered by a random
// direction, the three ways AnalyticJacobianOperator's +x pass can take:
// copying the base order and sorting it (the radix path), confirming that
// the previous pass's order still holds (O(k) scan), and a check that
// fails, here at once (the previous order is another direction's), then
// the same copy and sort.
enum class TieRunPath { FreshSort, VerifiedReuse, FailedCheckSort };

void BM_TieRunOrder(benchmark::State& state, TieRunPath path) {
  constexpr std::uint32_t kLen = 10000;
  ffc::stats::Xoshiro256 rng(5);
  std::vector<double> dx(kLen), other(kLen);
  for (double& v : dx) v = rng.uniform(-1.0, 1.0);
  for (double& v : other) v = rng.uniform(-1.0, 1.0);
  const std::vector<ffc::queueing::RateTieRun> runs{{0, kLen}};
  std::vector<std::uint32_t> base(kLen);
  std::iota(base.begin(), base.end(), std::uint32_t{0});
  std::vector<ffc::queueing::DirectionKey> keys;
  std::vector<std::uint32_t> sorted = base;
  ffc::queueing::order_tie_runs_by_direction(dx, runs, keys, sorted);
  std::vector<std::uint32_t> stale = base;
  ffc::queueing::order_tie_runs_by_direction(other, runs, keys, stale);
  std::vector<std::uint32_t> order(kLen);
  for (auto _ : state) {
    if (path == TieRunPath::VerifiedReuse) {
      benchmark::DoNotOptimize(
          ffc::queueing::tie_run_ordered_by_direction(dx, sorted));
      continue;
    }
    if (path == TieRunPath::FailedCheckSort) {
      benchmark::DoNotOptimize(
          ffc::queueing::tie_run_ordered_by_direction(dx, stale));
    }
    std::copy(base.begin(), base.end(), order.begin());
    ffc::queueing::order_tie_runs_by_direction(dx, runs, keys, order);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLen);
}
BENCHMARK_CAPTURE(BM_TieRunOrder, fresh_sort, TieRunPath::FreshSort);
BENCHMARK_CAPTURE(BM_TieRunOrder, verified_reuse, TieRunPath::VerifiedReuse);
BENCHMARK_CAPTURE(BM_TieRunOrder, failed_check_sort,
                  TieRunPath::FailedCheckSort);

}  // namespace
