// Microbenchmarks: the flow-control model's hot paths -- one synchronous
// step, a full observation, and the numerical Jacobian -- plus the large-N
// workspace family and the reference-vs-optimized pairs that demonstrate
// the O(N^2) -> O(N log N) rewrites (docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/ffc.hpp"
#include "spectral/analytic.hpp"
#include "spectral/operator.hpp"
#include "spectral/stability.hpp"
#include "stats/rng.hpp"

namespace {

using namespace ffc;

core::FlowControlModel make_model(std::size_t n_connections,
                                  core::FeedbackStyle style, bool fair_share) {
  stats::Xoshiro256 rng(5);
  network::RandomTopologyParams params;
  params.num_gateways = std::max<std::size_t>(2, n_connections / 3);
  params.num_connections = n_connections;
  auto topo = network::random_topology(rng, params);
  std::shared_ptr<const queueing::ServiceDiscipline> disc;
  if (fair_share) {
    disc = std::make_shared<queueing::FairShare>();
  } else {
    disc = std::make_shared<queueing::Fifo>();
  }
  return core::FlowControlModel(std::move(topo), std::move(disc),
                                std::make_shared<core::RationalSignal>(),
                                style,
                                std::make_shared<core::AdditiveTsi>(0.1,
                                                                    0.5));
}

std::vector<double> make_rates(std::size_t n) {
  stats::Xoshiro256 rng(9);
  std::vector<double> r(n);
  for (double& x : r) x = rng.uniform(0.0, 0.1);
  return r;
}

void BM_ModelStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto model = make_model(n, core::FeedbackStyle::Individual, true);
  auto rates = make_rates(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.step(rates));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ModelStep)->Arg(4)->Arg(16)->Arg(64);

void BM_ModelObserve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto model = make_model(n, core::FeedbackStyle::Individual, true);
  auto rates = make_rates(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.observe(rates));
  }
}
BENCHMARK(BM_ModelObserve)->Arg(4)->Arg(16)->Arg(64);

// The allocation-free workspace step at a single shared bottleneck, the
// regime where every connection meets at one gateway and the per-gateway
// work dominates. items/s counts connections stepped per second, so a flat
// curve here means the step really is O(N log N) per gateway -- the
// pre-rewrite O(N^2) inner loops made this family collapse by N = 1024.
void model_step_workspace(benchmark::State& state, core::FeedbackStyle style,
                          bool fair_share) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::shared_ptr<const queueing::ServiceDiscipline> disc;
  if (fair_share) {
    disc = std::make_shared<queueing::FairShare>();
  } else {
    disc = std::make_shared<queueing::Fifo>();
  }
  core::FlowControlModel model(
      network::single_bottleneck(n, 1.0), std::move(disc),
      std::make_shared<core::RationalSignal>(), style,
      std::make_shared<core::AdditiveTsi>(0.1, 0.5));
  stats::Xoshiro256 rng(9);
  std::vector<double> rates(n);
  for (double& x : rates) x = rng.uniform(0.0, 0.9 / static_cast<double>(n));
  core::ModelWorkspace ws;
  model.step(rates, ws);  // validate + warm the workspace once
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.step_unchecked(rates, ws));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(model_step_workspace, fifo_aggregate,
                  core::FeedbackStyle::Aggregate, false)
    ->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(model_step_workspace, fifo_individual,
                  core::FeedbackStyle::Individual, false)
    ->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(model_step_workspace, fairshare_aggregate,
                  core::FeedbackStyle::Aggregate, true)
    ->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(model_step_workspace, fairshare_individual,
                  core::FeedbackStyle::Individual, true)
    ->Arg(64)->Arg(256)->Arg(1024);

// The large-N family (docs/SCALING.md): the same warm workspace step at
// N = 10^4, 10^5, 10^6 connections on one shared gateway with mu = N. This
// is the regime the CSR/SoA engine exists for -- O(E) construction and O(N)
// (FIFO) / O(N log N) (FairShare sort) per step, where the pre-CSR
// index_paths() construction alone was O(N^2). Iterations are pinned so a
// hand run stays bounded; the items/s trend across the three decades
// is the scaling claim (flat = linear, a gentle droop at FairShare = the
// sort's log factor).
void model_step_large(benchmark::State& state, core::FeedbackStyle style,
                      bool fair_share) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::shared_ptr<const queueing::ServiceDiscipline> disc;
  if (fair_share) {
    disc = std::make_shared<queueing::FairShare>();
  } else {
    disc = std::make_shared<queueing::Fifo>();
  }
  core::FlowControlModel model(
      network::single_bottleneck(n, static_cast<double>(n)), std::move(disc),
      std::make_shared<core::RationalSignal>(), style,
      std::make_shared<core::AdditiveTsi>(0.4, 0.5));
  stats::Xoshiro256 rng(9);
  std::vector<double> rates(n);
  for (double& x : rates) x = rng.uniform(0.3, 0.6);
  core::ModelWorkspace ws;
  model.step(rates, ws);  // validate + warm the workspace once
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.step_unchecked(rates, ws));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(model_step_large, fifo_aggregate,
                  core::FeedbackStyle::Aggregate, false)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Iterations(20);
BENCHMARK_CAPTURE(model_step_large, fifo_individual,
                  core::FeedbackStyle::Individual, false)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Iterations(20);
BENCHMARK_CAPTURE(model_step_large, fairshare_aggregate,
                  core::FeedbackStyle::Aggregate, true)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Iterations(20);
BENCHMARK_CAPTURE(model_step_large, fairshare_individual,
                  core::FeedbackStyle::Individual, true)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Iterations(20);

// A full matrix-free spectral-radius solve (spectral::spectral_stability,
// iterative path) at an interior fixed point: power iteration over the
// finite-difference Jacobian-vector operator, 2 model evaluations per
// application, O(N) memory. The dense equivalent is O(N^2) memory -- 80 GB
// at N = 10^5 -- so this family has no dense baseline to compare against;
// correctness is pinned by tests/test_sparse_eigen.cpp instead.
void BM_SparseSpectralRadius(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::FlowControlModel model(
      network::single_bottleneck(n, static_cast<double>(n)),
      std::make_shared<queueing::FairShare>(),
      std::make_shared<core::RationalSignal>(),
      core::FeedbackStyle::Individual,
      std::make_shared<core::AdditiveTsi>(0.4, 0.5));
  // r_i = 1/2 is the exact symmetric fixed point (C_ss = beta/(1-beta) = 1);
  // the spectrum there is real (Theorem 4) with radius 0.8.
  const std::vector<double> rates(n, 0.5);
  spectral::SpectralOptions opts;
  opts.method = spectral::SpectralOptions::Method::Iterative;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::spectral_stability(model, rates, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SparseSpectralRadius)->Arg(10000)->Arg(100000)->Iterations(3);
// N=10^6 runs the analytic JVP path (Jvp::Auto resolves to the closed-form
// operator for this differentiable stack): one model evaluation total, every
// subsequent application a fused pass over the CSR entries.
BENCHMARK(BM_SparseSpectralRadius)->Arg(1000000)->Iterations(1);

// Jacobian-vector product A/B at the same smooth base point: the
// closed-form analytic operator (one fused pass over the CSR entries, zero
// model evaluations) against the central-difference operator (two full
// model evaluations per application). Same binary, same host, same warm
// buffers -- the items/s ratio IS the per-application speedup the iterative
// eigensolver inherits (docs/PERFORMANCE.md, the committed BENCH_PR8.json).
core::FlowControlModel jvp_bench_model(std::size_t n) {
  return core::FlowControlModel(
      network::single_bottleneck(n, static_cast<double>(n)),
      std::make_shared<queueing::FairShare>(),
      std::make_shared<core::RationalSignal>(),
      core::FeedbackStyle::Individual,
      std::make_shared<core::AdditiveTsi>(0.4, 0.5));
}

// Distinct rates near the symmetric fixed point: a smooth base (no rate or
// queue ties), so the analytic operator runs its one-pass fast path -- the
// configuration the large-N stability claims actually evaluate.
std::vector<double> jvp_bench_rates(std::size_t n) {
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = 0.45 + 0.1 * static_cast<double>(i) / static_cast<double>(n);
  }
  return rates;
}

std::vector<double> jvp_bench_direction(std::size_t n) {
  stats::Xoshiro256 rng(17);
  std::vector<double> x(n);
  for (double& e : x) e = rng.uniform(-1.0, 1.0);
  return x;
}

void BM_AnalyticJvp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto model = jvp_bench_model(n);
  const spectral::AnalyticJacobianOperator op(model, jvp_bench_rates(n));
  const std::vector<double> x = jvp_bench_direction(n);
  std::vector<double> y(n);
  op.apply(x, y);  // warm the flat buffers
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AnalyticJvp)->Arg(10000)->Arg(100000)->Iterations(50);

void BM_FdJvp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto model = jvp_bench_model(n);
  const spectral::ModelJacobianOperator op(model, jvp_bench_rates(n));
  const std::vector<double> x = jvp_bench_direction(n);
  std::vector<double> y(n);
  op.apply(x, y);  // warm the model workspace and probe buffers
  for (auto _ : state) {
    op.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FdJvp)->Arg(10000)->Arg(100000)->Iterations(50);

// Reference-vs-optimized pairs. The *_reference functions are the original
// O(N^2) formulations kept in-tree for the golden-equivalence tests; these
// benchmarks measure the asymptotic win directly (items/s = rates per
// second through the transform).
std::vector<double> bench_rates(std::size_t n) {
  stats::Xoshiro256 rng(31);
  std::vector<double> r(n);
  for (double& x : r) x = rng.uniform(0.0, 1.5 / static_cast<double>(n));
  return r;
}

void BM_CumulativeLoads(benchmark::State& state) {
  const auto rates = bench_rates(static_cast<std::size_t>(state.range(0)));
  queueing::DisciplineWorkspace ws;
  std::vector<double> out;
  queueing::FairShare::cumulative_loads_into(rates, 1.0, ws, out);
  for (auto _ : state) {
    queueing::FairShare::cumulative_loads_into(rates, 1.0, ws, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CumulativeLoads)->Arg(64)->Arg(256)->Arg(1024);

void BM_CumulativeLoadsReference(benchmark::State& state) {
  const auto rates = bench_rates(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queueing::FairShare::cumulative_loads_reference(rates, 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CumulativeLoadsReference)->Arg(64)->Arg(256)->Arg(1024);

void BM_IndividualCongestion(benchmark::State& state) {
  const auto queues = bench_rates(static_cast<std::size_t>(state.range(0)));
  core::CongestionWorkspace ws;
  std::vector<double> out(queues.size());
  core::congestion_measures_into(core::FeedbackStyle::Individual, queues, ws,
                                 out);
  for (auto _ : state) {
    core::congestion_measures_into(core::FeedbackStyle::Individual, queues,
                                   ws, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IndividualCongestion)->Arg(64)->Arg(256)->Arg(1024);

void BM_IndividualCongestionReference(benchmark::State& state) {
  const auto queues = bench_rates(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::individual_congestion_reference(queues));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IndividualCongestionReference)->Arg(64)->Arg(256)->Arg(1024);

// The dense stability path's DF: the operator built at the point, then
// materialized with N applications to e_j, for either operator
// spectral_stability can pick.
template <class Operator>
void BM_Jacobian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto model = make_model(n, core::FeedbackStyle::Individual, true);
  auto rates = make_rates(n);
  for (auto _ : state) {
    const Operator op(model, rates);
    benchmark::DoNotOptimize(linalg::materialize(op));
  }
}
BENCHMARK_TEMPLATE(BM_Jacobian, spectral::AnalyticJacobianOperator)
    ->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_TEMPLATE(BM_Jacobian, spectral::ModelJacobianOperator)
    ->Arg(4)->Arg(16)->Arg(64);

void BM_FixedPointSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto model = make_model(n, core::FeedbackStyle::Individual, true);
  core::FixedPointOptions opts;
  opts.damping = 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_fixed_point(model, make_rates(n), opts));
  }
}
BENCHMARK(BM_FixedPointSolve)->Arg(4)->Arg(16);

}  // namespace
