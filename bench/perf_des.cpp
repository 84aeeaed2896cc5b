// Microbenchmarks: discrete-event simulator throughput (events/second),
// which bounds how much simulated time the validation experiments can cover,
// the bare calendar's cost per event (the hold model), the cost of one
// random-stream split (the engine's set-up makes G + N of them), plus the
// sweep-execution layer itself (exec::SweepRunner fanning replica
// DES runs and bifurcation scans across threads).
//
// Unlike the other perf_* binaries this one has a custom main: it accepts
// --jobs N (default 1) before the usual google-benchmark flags, and the
// BM_*Sweep benchmarks run their sweep at that worker count, so
//   perf_des --jobs 4 --benchmark_filter=Sweep
// vs --jobs 1 measures the parallel speedup directly.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/onedmap.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "exec/cli.hpp"
#include "exec/param_grid.hpp"
#include "exec/sweep_runner.hpp"
#include "network/builders.hpp"
#include "sim/network_sim.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::sim::NetworkSimulator;
using ffc::sim::SimDiscipline;

// Sweep options from --jobs/--seed, shared by the BM_*Sweep benchmarks.
ffc::exec::SweepOptions g_sweep_options;

void run_network(benchmark::State& state, SimDiscipline kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    NetworkSimulator sim(ffc::network::single_bottleneck(n, 1.0), kind, 5);
    sim.set_rates(std::vector<double>(n, 0.8 / static_cast<double>(n)));
    state.ResumeTiming();
    sim.run_for(2000.0);
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_FifoGateway(benchmark::State& state) {
  run_network(state, SimDiscipline::Fifo);
}
BENCHMARK(BM_FifoGateway)->Arg(2)->Arg(8)->Arg(32);

void BM_FairShareGateway(benchmark::State& state) {
  run_network(state, SimDiscipline::FairShare);
}
BENCHMARK(BM_FairShareGateway)->Arg(2)->Arg(8)->Arg(32);

void BM_ParkingLotNetwork(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    NetworkSimulator sim(ffc::network::parking_lot(hops, 2, 1.0),
                         SimDiscipline::FairShare, 9);
    const std::size_t n = sim.topology().num_connections();
    sim.set_rates(std::vector<double>(n, 0.2));
    state.ResumeTiming();
    sim.run_for(1000.0);
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ParkingLotNetwork)->Arg(2)->Arg(5);

// The hold model: each event, when it fires, schedules one more at an
// exponential increment, so the calendar keeps a constant number of events
// pending and every step is one pop plus one push.
class HoldHandler final : public ffc::sim::EventHandler {
 public:
  HoldHandler(ffc::sim::Simulator& sim, std::uint64_t seed)
      : sim_(sim), rng_(seed) {}

  void handle_event(ffc::sim::SimEvent& event) override {
    sim_.schedule_event_in(rng_.exponential(1.0), *this, event);
  }

 private:
  ffc::sim::Simulator& sim_;
  ffc::stats::Xoshiro256 rng_;
};

// Calendar cost per event at Arg(0) pending events: ns per hold is the
// time per iteration. 10 pending is E19's calendar, 3*10^4 des_fairshare's.
void BM_CalendarHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  ffc::sim::Simulator sim;
  HoldHandler handler(sim, 7);
  sim.reserve(pending);
  ffc::stats::Xoshiro256 rng(11);
  ffc::sim::SimEvent event;
  for (std::size_t i = 0; i < pending; ++i) {
    event.index = static_cast<std::uint32_t>(i);
    sim.schedule_event_in(rng.exponential(1.0), handler, event);
  }
  // One full turnover first, so the heap holds a steady-state mix of times.
  for (std::size_t i = 0; i < pending; ++i) sim.step();
  for (auto _ : state) benchmark::DoNotOptimize(sim.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarHold)->Arg(10)->Arg(1000)->Arg(30000)->Arg(100000);

// One Xoshiro256::split(), the 2^128 jump: a NetworkSimulator makes one per
// gateway and one per connection at construction.
void BM_XoshiroSplit(benchmark::State& state) {
  ffc::stats::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.split());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_XoshiroSplit);

// ---- sweep-layer benchmarks (honour --jobs) ------------------------------

// Replica DES sweep: Arg(0) independent single-bottleneck runs, each seeded
// from (base_seed, grid index): the replica-parallel workload shape the
// exec layer exists for; events/s aggregates across all replicas.
void BM_ReplicaDesSweep(benchmark::State& state) {
  const auto replicas = static_cast<std::size_t>(state.range(0));
  ffc::exec::ParamGrid grid;
  grid.axis("replica",
            ffc::exec::ParamGrid::linspace(0.0, replicas - 1.0, replicas));
  std::uint64_t events = 0;
  for (auto _ : state) {
    ffc::exec::SweepRunner runner(g_sweep_options);
    const auto counts = runner.run(
        grid,
        [](const ffc::exec::GridPoint&, std::uint64_t seed) -> std::uint64_t {
          NetworkSimulator sim(ffc::network::single_bottleneck(8, 1.0),
                               SimDiscipline::FairShare, seed);
          sim.set_rates(std::vector<double>(8, 0.1));
          sim.run_for(2000.0);
          return sim.events_processed();
        });
    for (std::uint64_t c : counts) events += c;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(
      ffc::exec::SweepRunner(g_sweep_options).jobs());
}
// UseRealTime: the work happens on pool threads, so rates must be computed
// against wall time, not the main thread's (near-zero) CPU time.
BENCHMARK(BM_ReplicaDesSweep)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The E5 workload shape: classify + Lyapunov across an eta grid.
void BM_BifurcationSweep(benchmark::State& state) {
  using namespace ffc;
  const std::size_t n = 8;
  auto family = [&](double eta) {
    return core::make_symmetric_aggregate_map(
        n, 1.0, 0.0, std::make_shared<core::QuadraticSignal>(),
        std::make_shared<core::AdditiveTsi>(eta, 0.5));
  };
  exec::ParamGrid grid;
  grid.axis("eta", exec::ParamGrid::arange(0.05, 0.26, 0.005));
  for (auto _ : state) {
    exec::SweepRunner runner(g_sweep_options);
    const auto points = runner.run(
        grid, [&family](const exec::GridPoint& p, std::uint64_t) {
          const core::OneDMap map = family(p.get("eta"));
          return map.lyapunov(0.05, 2000, 2048);
        });
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * grid.size()));
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * grid.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BifurcationSweep)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Custom main: peel off --jobs/--seed, hand the rest to google-benchmark.
int main(int argc, char** argv) {
  using ffc::exec::TakeResult;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string value;
    TakeResult taken;
    // A malformed value (TakeResult::Error) has already been reported.
    if ((taken = ffc::exec::take_flag_value("--jobs", argc, argv, i,
                                            value)) != TakeResult::NoMatch) {
      if (taken == TakeResult::Error) return 1;
      if (!ffc::exec::parse_size(value, g_sweep_options.jobs)) {
        std::cerr << "perf_des: bad --jobs value '" << value << "'\n";
        return 1;
      }
    } else if ((taken = ffc::exec::take_flag_value("--seed", argc, argv, i,
                                                   value)) !=
               TakeResult::NoMatch) {
      if (taken == TakeResult::Error) return 1;
      if (!ffc::exec::parse_u64(value, g_sweep_options.base_seed)) {
        std::cerr << "perf_des: bad --seed value '" << value << "'\n";
        return 1;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
