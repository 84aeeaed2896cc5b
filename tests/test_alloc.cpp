// Allocation regression tests for the hot paths (docs/PERFORMANCE.md).
//
// The whole point of the workspace model path and the tagged-event DES core
// is that the inner loops perform ZERO heap allocations after warm-up. These
// tests replace the global operator new with a counting hook and pin that
// property: a steady-state iterate of the analytic map and a 10k-event
// window of the packet simulator must not allocate at all. The same hook
// counts bytes, which pins the packet engines' construction to memory
// linear in the topology size.
//
// Everything here is single-threaded and seeded, so the counts are exact
// and deterministic -- a failure is a real regression, not noise.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/congestion.hpp"
#include "core/model.hpp"
#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "linalg/sparse_eigen.hpp"
#include "network/builders.hpp"
#include "network/topology.hpp"
#include "queueing/fair_share.hpp"
#include "sim/feedback_sim.hpp"
#include "sim/network_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/window_sim.hpp"
#include "spectral/analytic.hpp"
#include "spectral/operator.hpp"
#include "stats/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<bool> g_counting{false};
}  // namespace

// Counting replacements for the global allocation functions. Only the
// windows bracketed by AllocWindow count; everything else passes through.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Over-aligned types (the calendar's cache-line slots, the engine's source
// records) allocate through the aligned forms; count those too.
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size ? size : 1) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// noinline: inlined into a delete-expression, the std::free meets a pointer
// GCC 12 knows came from operator new and warns -Wmismatched-new-delete.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t,
                                                 std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using ffc::core::FeedbackStyle;
using ffc::core::ModelWorkspace;
using ffc::sim::EventKind;
using ffc::sim::NetworkSimulator;
using ffc::sim::SimDiscipline;
using ffc::sim::SimEvent;
using ffc::sim::Simulator;
namespace th = ffc::testing;

/// RAII window: heap allocations between construction and count() (or
/// bytes()) are tallied.
class AllocWindow {
 public:
  AllocWindow() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_alloc_bytes.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t count() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_alloc_bytes.load(std::memory_order_relaxed);
  }
};

TEST(AllocFree, SteadyStateIterateDoesNotAllocate) {
  for (bool fair : {false, true}) {
    for (auto style :
         {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
      const std::size_t n = 32;
      auto model = th::single_gateway_model(
          n, fair ? th::fair_share() : th::fifo(), style);
      ModelWorkspace ws;
      std::vector<double> initial(n);
      for (std::size_t i = 0; i < n; ++i) {
        initial[i] = 0.9 / static_cast<double>(n) * (1.0 + 0.01 * i);
      }
      std::vector<double> rates = initial;
      const auto iterate = [&] {
        rates = initial;
        model.step(rates, ws);  // validated entry, then unchecked
        for (int iter = 0; iter < 100; ++iter) {
          const std::vector<double>& next = model.step_unchecked(rates, ws);
          rates = next;  // same size: copies into existing capacity
        }
      };
      // Warm-up runs the EXACT trajectory to be measured, so every buffer
      // (including ones only touched in regimes the iterate wanders into,
      // like zero-rate sojourn probes) reaches its final capacity.
      iterate();

      AllocWindow window;
      iterate();
      EXPECT_EQ(window.count(), 0u)
          << (fair ? "FairShare" : "FIFO") << " style "
          << static_cast<int>(style);
    }
  }
}

TEST(AllocFree, FixedPointSolveReusingWorkspaceDoesNotAllocate) {
  const std::size_t n = 16;
  auto model = th::single_gateway_model(n, th::fair_share(),
                                        FeedbackStyle::Individual);
  ModelWorkspace ws;
  ffc::core::FixedPointOptions opts;
  opts.max_iterations = 400;
  std::vector<double> initial(n, 0.9 / static_cast<double>(n));
  // Warm-up solve grows the workspace and the result buffers.
  ffc::core::solve_fixed_point(model, initial, opts, ws);

  // The solver mutates its iterate in place; the only allocations in a
  // repeat solve are the by-value `initial` copy and the returned
  // FixedPointResult's rates vector -- the ITERATION itself adds nothing.
  AllocWindow window;
  const auto result = ffc::core::solve_fixed_point(model, initial, opts, ws);
  const std::uint64_t allocs = window.count();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 10u);
  EXPECT_LE(allocs, 4u) << "iterations: " << result.iterations;
}

TEST(AllocFree, WarmSparseSpectralIterateDoesNotAllocate) {
  // The large-N stability engine (docs/SCALING.md): once the matrix-free
  // operator and the eigensolver workspace are warm, a full spectral-radius
  // solve -- every J.v application, projection, and Rayleigh update --
  // performs ZERO heap allocations.
  // mu = N puts the interior fixed point at r_i = 0.5 with a genuinely
  // contracting spectrum (radius 0.8 at eta = 0.4) -- the power iteration
  // needs ~80 operator applications, so the window really exercises the
  // warm loop.
  const std::size_t n = 64;
  auto model = th::single_gateway_model(n, th::fair_share(),
                                        FeedbackStyle::Individual, 0.4, 0.5,
                                        static_cast<double>(n));
  ModelWorkspace model_ws;
  ffc::core::FixedPointOptions fp_opts;
  fp_opts.max_iterations = 2000;
  const auto fp = ffc::core::solve_fixed_point(
      model, std::vector<double>(n, 0.4), fp_opts, model_ws);
  ASSERT_TRUE(fp.converged);
  const ffc::spectral::ModelJacobianOperator op(model, fp.rates);
  ffc::linalg::IterativeEigenOptions opts;
  opts.real_spectrum = true;  // Theorem 4: individual + FairShare
  ffc::linalg::SparseEigenWorkspace ws;
  ffc::linalg::IterativeEigenResult out;
  // Warm-up runs the exact solve to be measured: workspace vectors, result
  // capacity, and the model workspace all reach final size.
  ffc::linalg::iterative_eigenvalues_into(op, 1, opts, ws, out);
  ASSERT_TRUE(out.converged);

  AllocWindow window;
  ffc::linalg::iterative_eigenvalues_into(op, 1, opts, ws, out);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.applications, 10u);
  EXPECT_NEAR(out.spectral_radius, 0.8, 1e-6);
}

TEST(AllocFree, WarmArnoldiSolveDoesNotAllocate) {
  // A 200 x 200 matrix whose dominant eigenvalues are the complex pair
  // 1.5 e^{+-i pi/4}: the power stage hands over to Arnoldi, which builds
  // its Hessenberg matrix and solves the leading block by dense QR. All of
  // that lives in the workspace, so a warm solve allocates nothing.
  const std::size_t n = 200;
  ffc::linalg::Matrix a(n, n, 0.0);
  const double c = 1.5 * std::cos(0.25 * 3.14159265358979323846);
  const double s = 1.5 * std::sin(0.25 * 3.14159265358979323846);
  a(0, 0) = c;
  a(0, 1) = -s;
  a(1, 0) = s;
  a(1, 1) = c;
  for (std::size_t i = 2; i < n; ++i) {
    a(i, i) = 0.5 * static_cast<double>(i) / static_cast<double>(n);
    a(i, i - 1) = 0.1;
  }
  const ffc::linalg::MatrixOperator op(a);
  const ffc::linalg::IterativeEigenOptions opts;
  ffc::linalg::SparseEigenWorkspace ws;
  ffc::linalg::IterativeEigenResult out;
  ffc::linalg::iterative_eigenvalues_into(op, 1, opts, ws, out);
  ASSERT_TRUE(out.converged);
  ASSERT_EQ(out.method, ffc::linalg::IterativeMethod::Arnoldi);

  AllocWindow window;
  ffc::linalg::iterative_eigenvalues_into(op, 1, opts, ws, out);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.eigenvalues.size(), 2u);
  EXPECT_NEAR(out.spectral_radius, 1.5, 1e-9);
}

TEST(AllocFree, WarmJacobianOperatorApplyDoesNotAllocate) {
  const std::size_t n = 32;
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Aggregate);
  std::vector<double> rates(n, 0.8 / static_cast<double>(n));
  rates[0] = 0.0;  // exercise the one-sided boundary fallback too
  const ffc::spectral::ModelJacobianOperator op(model, rates);
  std::vector<double> x(n, 0.0), y(n);
  const auto sweep = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      std::fill(x.begin(), x.end(), 0.0);
      x[k] = k % 2 ? 1.0 : -1.0;  // both probe directions
      op.apply(x, y);
    }
  };
  sweep();  // warm-up: probe buffers and model workspace materialize

  AllocWindow window;
  sweep();
  EXPECT_EQ(window.count(), 0u);
}

TEST(AllocFree, WarmAnalyticJacobianApplyDoesNotAllocate) {
  // The closed-form operator never calls the model after construction; a
  // warm apply must be pure arithmetic over the preallocated flat buffers.
  // FairShare + individual is the worst case: BOTH tie-resolving sorts run
  // (rate order and queue order) and a tied base forces the two-pass branch
  // average -- all of it in workspace scratch.
  const std::size_t n = 32;
  auto model = th::single_gateway_model(n, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(n, 0.8 / static_cast<double>(n));  // fully tied
  const ffc::spectral::AnalyticJacobianOperator op(model, rates);
  ASSERT_FALSE(op.smooth());  // ties: every apply runs both passes
  std::vector<double> x(n, 0.0), y(n);
  const auto sweep = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      std::fill(x.begin(), x.end(), 0.0);
      x[k] = k % 2 ? 1.0 : -1.0;
      op.apply(x, y);
    }
  };
  sweep();  // warm-up: sort scratch inside the shared workspaces materializes

  AllocWindow window;
  sweep();
  EXPECT_EQ(window.count(), 0u);
}

/// Applies `count` signed unit directions to `op` through the caller's
/// x and y (sized to the operator).
void apply_unit_directions(const ffc::spectral::AnalyticJacobianOperator& op,
                           std::size_t count, std::vector<double>& x,
                           std::vector<double>& y) {
  for (std::size_t k = 0; k < count; ++k) {
    std::fill(x.begin(), x.end(), 0.0);
    x[(k * 7919) % x.size()] = k % 2 ? 1.0 : -1.0;
    op.apply(x, y);
  }
}

TEST(AllocFree, AnalyticApplyOnLongTieRunDoesNotAllocate) {
  // One fully tied gateway longer than the radix cut-off: the +x pass
  // radix-sorts the run through two key buffers, which precompute()
  // reserves, so even the FIRST apply after construction allocates nothing.
  const std::size_t n = 3 * ffc::queueing::kTieRunRadixCutoff + 5;
  auto model = th::single_gateway_model(n, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(n, 0.8 / static_cast<double>(n));
  const ffc::spectral::AnalyticJacobianOperator op(model, rates);
  ASSERT_FALSE(op.smooth());
  std::vector<double> x(n), y(n);
  ffc::stats::Xoshiro256 rng(3);
  for (auto& e : x) e = rng.uniform(-1.0, 1.0);
  {
    AllocWindow window;
    op.apply(x, y);
    EXPECT_EQ(window.count(), 0u);
  }
  AllocWindow window;
  apply_unit_directions(op, 16, x, y);
  EXPECT_EQ(window.count(), 0u);
}

TEST(AllocFree, AnalyticApplyOnParkingLotDoesNotAllocate) {
  // Multi-gateway: four tie runs longer than the cut-off, the long
  // connection's four argmax hops, and per-gateway coefficient prefixes.
  auto model = th::make_model(ffc::network::parking_lot(4, 100, 101.0),
                              th::fair_share(), FeedbackStyle::Individual,
                              0.4, 0.5);
  const std::vector<double> fair = ffc::core::fair_steady_state(model);
  const ffc::spectral::AnalyticJacobianOperator op(model, fair);
  ASSERT_FALSE(op.smooth());
  std::vector<double> x(fair.size()), y(fair.size());
  apply_unit_directions(op, 4, x, y);  // warm-up

  AllocWindow window;
  apply_unit_directions(op, 32, x, y);
  EXPECT_EQ(window.count(), 0u);
}

TEST(AllocFree, WarmFairShareJvpWorkspaceDoesNotAllocate) {
  // FairShare's self-contained JVP builds the order, the sorted runs and
  // the coefficients in its DisciplineWorkspace: allocation-free once warm,
  // on a short and a radix-length tie run alike.
  const std::size_t n = 2 * ffc::queueing::kTieRunRadixCutoff;
  std::vector<double> rates(n, 0.3 / static_cast<double>(n));
  for (std::size_t i = 0; i < 6; ++i) rates[i] = 0.1 / static_cast<double>(n);
  const ffc::queueing::FairShare fs;
  const std::vector<double> queues = fs.queue_lengths(rates, 1.0);
  std::vector<double> dx(n), dq(n);
  ffc::stats::Xoshiro256 rng(11);
  ffc::queueing::DisciplineWorkspace ws;
  const auto sweep = [&] {
    for (int rep = 0; rep < 4; ++rep) {
      for (auto& e : dx) e = rng.uniform(-1.0, 1.0);
      fs.queue_lengths_jvp_into(rates, 1.0, queues, dx, ws, dq);
    }
  };
  sweep();  // warm-up

  AllocWindow window;
  sweep();
  EXPECT_EQ(window.count(), 0u);
}

TEST(AllocFree, CongestionJvpRejectionAfterAcceptedWarmupDoesNotAllocate) {
  // The analytic operator's warm-up may accept every candidate order; the
  // first rejection afterwards (rounding can cause one) must still find
  // the fallback sort's scratch in place.
  const std::vector<double> queues{0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<double> dq{0.2, -0.4, 0.7, 0.0, -0.1};
  const std::vector<std::uint32_t> sorted{0, 1, 2, 3, 4};
  const std::vector<std::uint32_t> reversed{4, 3, 2, 1, 0};
  ffc::core::CongestionWorkspace ws;
  std::vector<double> dc(queues.size());
  ASSERT_TRUE(ffc::core::congestion_jvp_into(FeedbackStyle::Individual, queues,
                                             dq, ws, dc, sorted));

  AllocWindow window;
  const bool used = ffc::core::congestion_jvp_into(
      FeedbackStyle::Individual, queues, dq, ws, dc, reversed);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_FALSE(used);
}

TEST(AllocFree, WarmSpectralSolveOverAnalyticOperatorDoesNotAllocate) {
  // Same harness as the FD-operator spectral test above, on the analytic
  // operator: the full warm eigensolve -- every closed-form J.v, projection,
  // and Rayleigh update -- performs ZERO heap allocations.
  const std::size_t n = 64;
  auto model = th::single_gateway_model(n, th::fair_share(),
                                        FeedbackStyle::Individual, 0.4, 0.5,
                                        static_cast<double>(n));
  ModelWorkspace model_ws;
  ffc::core::FixedPointOptions fp_opts;
  fp_opts.max_iterations = 2000;
  const auto fp = ffc::core::solve_fixed_point(
      model, std::vector<double>(n, 0.4), fp_opts, model_ws);
  ASSERT_TRUE(fp.converged);
  const ffc::spectral::AnalyticJacobianOperator op(model, fp.rates);
  ffc::linalg::IterativeEigenOptions opts;
  opts.real_spectrum = true;  // Theorem 4: individual + FairShare
  ffc::linalg::SparseEigenWorkspace ws;
  ffc::linalg::IterativeEigenResult out;
  ffc::linalg::iterative_eigenvalues_into(op, 1, opts, ws, out);
  ASSERT_TRUE(out.converged);

  AllocWindow window;
  ffc::linalg::iterative_eigenvalues_into(op, 1, opts, ws, out);
  EXPECT_EQ(window.count(), 0u);
  EXPECT_TRUE(out.converged);
  EXPECT_GT(out.applications, 10u);
  EXPECT_NEAR(out.spectral_radius, 0.8, 1e-6);
}

TEST(AllocFree, TaggedEventCalendarDoesNotAllocate) {
  // A self-rescheduling tagged-event chain reuses one slot and one heap
  // entry; after the first event the calendar never grows.
  Simulator sim;
  struct Chain final : ffc::sim::EventHandler {
    explicit Chain(Simulator& s) : sim(s) {}
    void handle_event(SimEvent& event) override {
      ++fired;
      sim.schedule_event_in(1.0, *this, event);
    }
    Simulator& sim;
    std::uint64_t fired = 0;
  } chain(sim);
  SimEvent e;
  e.kind = EventKind::Arrival;
  sim.schedule_event_in(1.0, chain, e);
  sim.run_until(10.0);  // warm-up: slot pool and heap materialize

  AllocWindow window;
  sim.run_until(10010.0);  // 10k more events
  EXPECT_EQ(window.count(), 0u);
  EXPECT_GE(chain.fired, 10000u);
  EXPECT_EQ(sim.slot_pool_size(), 1u);
}

TEST(AllocFree, NetworkSimulatorWindowDoesNotAllocate) {
  for (auto discipline : {SimDiscipline::Fifo, SimDiscipline::FairQueueing,
                          SimDiscipline::FairShare}) {
    NetworkSimulator sim(ffc::network::single_bottleneck(4, 1.0),
                         discipline, 90210);
    // Warm up ABOVE the measurement load so every ring buffer, the heap,
    // and the slot pool reach a high-water mark the measured window stays
    // inside. rho = 0.96 backlogs deeper than the measured rho = 0.8.
    sim.set_rates({0.24, 0.24, 0.24, 0.24});
    sim.run_for(4000.0);
    sim.set_rates({0.2, 0.2, 0.2, 0.2});
    sim.run_for(500.0);

    const std::uint64_t before = sim.events_processed();
    AllocWindow window;
    sim.run_for(5000.0);
    const std::uint64_t allocs = window.count();
    const std::uint64_t events = sim.events_processed() - before;
    EXPECT_EQ(allocs, 0u) << "discipline " << static_cast<int>(discipline);
    EXPECT_GT(events, 10000u);
  }
  // Fan-in 80: the priority classes and the Fair Queueing backlogs span two
  // bitmap words and share one node pool per server. Unequal rates spread
  // Fair Share packets over many classes; the same warm-up rule holds.
  const std::size_t n = 80;
  std::vector<double> warm(n);
  std::vector<double> measured(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The weights (1 + i % 4) / 200 sum to 1.
    const double weight = static_cast<double>(1 + i % 4) / 200.0;
    warm[i] = 0.96 * weight;
    measured[i] = 0.8 * weight;
  }
  for (auto discipline :
       {SimDiscipline::FairQueueing, SimDiscipline::FairShare}) {
    NetworkSimulator sim(ffc::network::single_bottleneck(n, 1.0), discipline,
                         90210);
    sim.set_rates(warm);
    sim.run_for(4000.0);
    sim.set_rates(measured);
    sim.run_for(500.0);

    const std::uint64_t before = sim.events_processed();
    AllocWindow window;
    sim.run_for(5000.0);
    const std::uint64_t allocs = window.count();
    const std::uint64_t events = sim.events_processed() - before;
    EXPECT_EQ(allocs, 0u) << "discipline " << static_cast<int>(discipline)
                          << " at fan-in 80";
    EXPECT_GT(events, 10000u);
  }
}

TEST(AllocFree, WindowSourcesDoNotAllocate) {
  // E14's two-connection topology under fixed windows. A fixed window
  // bounds the packets in flight, so the warm-up takes the calendar, the
  // slot pool and the server rings to every high-water mark the measured
  // run reaches; ACK-clocked forwarding must then never touch the
  // allocator.
  const ffc::network::Topology topo(
      {{1.0, 0.1}, {100.0, 5.0}},
      {ffc::network::Connection{{0}}, ffc::network::Connection{{0, 1}}});
  ffc::sim::WindowOptions opts;
  opts.adapt = false;
  opts.initial_window = 8.0;
  for (auto discipline : {SimDiscipline::Fifo, SimDiscipline::FairQueueing}) {
    ffc::sim::WindowNetworkSimulator ws(topo, discipline, opts, 42);
    ws.run_for(20000.0);
    const std::uint64_t before = ws.delivered(0) + ws.delivered(1);

    AllocWindow window;
    ws.run_for(80000.0);
    const std::uint64_t allocs = window.count();
    const std::uint64_t delivered =
        ws.delivered(0) + ws.delivered(1) - before;
    EXPECT_EQ(allocs, 0u) << "discipline " << static_cast<int>(discipline);
    EXPECT_GT(delivered, 10000u);
  }
}

TEST(AllocFree, ColdModelStepAllocationsDoNotGrowWithTopology) {
  // A first step(r, ws) on a fresh workspace sizes each buffer once: the
  // observation's per-entry and per-connection vectors, the sojourns, the
  // next iterate and the discipline/congestion scratch. No buffer is kept
  // per gateway or per connection, so the count is the same at G = 2,
  // N = 4 and at G = 32, N = 64. Gateway a carries a one-hop connection
  // and a two-hop one on to gateway a + 1 (mod G): every fan-in is 3, so
  // the per-gateway scratch grows once at either size.
  const auto ring = [](std::size_t gateways) {
    std::vector<ffc::network::Connection> connections;
    for (std::size_t a = 0; a < gateways; ++a) {
      connections.push_back({{a}});
      connections.push_back({{a, (a + 1) % gateways}});
    }
    return ffc::network::Topology(
        std::vector<ffc::network::Gateway>(gateways, {1.0, 0.1}),
        std::move(connections));
  };
  for (bool fair : {false, true}) {
    for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
      std::uint64_t counts[2];
      const std::size_t gateways[2] = {2, 32};
      for (std::size_t k = 0; k < 2; ++k) {
        const auto model = th::make_model(
            ring(gateways[k]), fair ? th::fair_share() : th::fifo(), style);
        const std::vector<double> rates(model.topology().num_connections(),
                                        0.1);
        ModelWorkspace ws;
        AllocWindow window;
        model.step(rates, ws);
        counts[k] = window.count();
      }
      EXPECT_EQ(counts[0], counts[1])
          << (fair ? "Fair Share" : "FIFO") << ", style "
          << static_cast<int>(style) << ": " << counts[0]
          << " allocations at G = 2, " << counts[1] << " at G = 32";
    }
  }
}

TEST(AllocFree, ClosedLoopEpochAllocationsDoNotGrowWithTopology) {
  // A warm closed-loop epoch allocates only what it returns (the record
  // vector and the EpochRecord's three vectors): the measured queues,
  // congestion measures and signals live in buffers the loop reuses, so
  // the count is the same on a 2-gateway and a 32-gateway parking lot.
  // Under Fair Share, set_rates re-decomposes every gateway into the
  // servers' own buffers, through one reused local-rate scratch.
  for (auto discipline : {SimDiscipline::Fifo, SimDiscipline::FairShare}) {
    for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
      std::uint64_t counts[2];
      const std::size_t gateways[2] = {2, 32};
      for (std::size_t k = 0; k < 2; ++k) {
        const auto topo = ffc::network::parking_lot(gateways[k], 1, 1.0, 0.5);
        const std::size_t n = topo.num_connections();
        ffc::sim::ClosedLoopOptions opts;
        opts.epoch_duration = 200.0;
        ffc::sim::ClosedLoopSimulator loop(
            topo, discipline,
            std::make_shared<ffc::core::RationalSignal>(), style,
            {n, std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.5)}, 7, opts);
        // Warm up ABOVE the measured load (rho = 0.9 against 0.6 per hop) so
        // the DES rings, calendar and slot pool, and the loop's own buffers,
        // reach every high-water mark the measured epoch stays inside.
        loop.run(std::vector<double>(n, 0.45), 3);
        const std::vector<double> measured(n, 0.3);
        AllocWindow window;
        const auto records = loop.run(measured, 1);
        counts[k] = window.count();
        EXPECT_EQ(records.size(), 1u);
        EXPECT_EQ(counts[k], 4u) << "G = " << gateways[k] << ", discipline "
                                 << static_cast<int>(discipline);
      }
      EXPECT_EQ(counts[0], counts[1])
          << "discipline " << static_cast<int>(discipline) << ", style "
          << static_cast<int>(style) << ": " << counts[0]
          << " allocations at G = 2, " << counts[1] << " at G = 32";
    }
  }
}

/// The construction-memory budget per topology element (gateway,
/// connection or path hop) of every packet engine.
constexpr std::uint64_t kBytesPerElement = 512;

/// Bytes allocated while `build` constructs an engine from a copy of
/// `topo` (the copy itself is made outside the window).
template <typename Build>
std::uint64_t construction_bytes(const ffc::network::Topology& topo,
                                 Build build) {
  ffc::network::Topology copy = topo;
  AllocWindow window;
  const auto engine = build(std::move(copy));
  return window.bytes();
}

TEST(AllocScaling, PacketEngineConstructionIsLinearInTopologySize) {
  // G = 500 gateways, N = 10^4 single-hop connections (E = N). Any table
  // indexed by (gateway, connection) costs G * N * 8 bytes = 40 MB here,
  // per engine. Everything an engine needs is O(G + N + E): about 90 bytes
  // per element for NetworkSimulator, about 320 for WindowNetworkSimulator,
  // which adds its source state to an engine's and whose construction also
  // sends every source's first window.
  constexpr std::size_t kGateways = 500;
  constexpr std::size_t kConnections = 10000;
  std::vector<ffc::network::Gateway> gateways(kGateways, {1.0, 0.1});
  std::vector<ffc::network::Connection> connections(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    connections[i].path = {i % kGateways};
  }
  const ffc::network::Topology topo(gateways, connections);
  const std::uint64_t elements = kGateways + 2 * kConnections;

  const std::uint64_t single = construction_bytes(
      topo, [](ffc::network::Topology t) {
        return std::make_unique<NetworkSimulator>(std::move(t),
                                                  SimDiscipline::Fifo, 7);
      });
  EXPECT_LE(single, kBytesPerElement * elements);

  const std::uint64_t windowed = construction_bytes(
      topo, [](ffc::network::Topology t) {
        return std::make_unique<ffc::sim::WindowNetworkSimulator>(
            std::move(t), SimDiscipline::Fifo, ffc::sim::WindowOptions{}, 7);
      });
  EXPECT_LE(windowed, kBytesPerElement * elements);
}

TEST(AllocScaling, TopologyBuildIsConstantInN) {
  // The builders write the flat connection-major path rows directly and
  // the CSR index takes them over, so a build allocates the same number of
  // buffers at N = 10^3 and at N = 10^5: nothing is kept per connection.
  const auto check = [](const char* name, auto build) {
    std::uint64_t counts[2];
    const std::size_t sizes[2] = {1000, 100000};
    for (std::size_t k = 0; k < 2; ++k) {
      AllocWindow window;
      const ffc::network::Topology topo = build(sizes[k]);
      counts[k] = window.count();
    }
    EXPECT_EQ(counts[0], counts[1])
        << name << ": " << counts[0] << " allocations at N = 10^3, "
        << counts[1] << " at N = 10^5";
  };
  check("single_bottleneck",
        [](std::size_t n) { return ffc::network::single_bottleneck(n); });
  check("parking_lot",
        [](std::size_t n) { return ffc::network::parking_lot(4, n / 4); });
  check("tandem", [](std::size_t n) { return ffc::network::tandem(3, n); });

  // A scaled copy copies the index: the allocations of a plain copy, with
  // no re-validation (its gateway-stamp array would add one) or re-index.
  const auto topo = ffc::network::single_bottleneck(1000);
  std::uint64_t copied = 0, scaled = 0;
  {
    AllocWindow window;
    const ffc::network::Topology copy = topo;
    copied = window.count();
  }
  {
    AllocWindow window;
    const ffc::network::Topology copy = topo.scaled_rates(2.0);
    scaled = window.count();
  }
  EXPECT_EQ(scaled, copied);
}

TEST(AllocScaling, FairShareRatesAreLinearInFanIn) {
  // One gateway with a fan-in of 10^4 (G = 1, N = E = 10^4). A Fair Share
  // table indexed by (connection, class) costs fan-in^2 * 8 bytes = 800 MB
  // here. The server keeps Table 1 in its compact O(fan-in) form, so
  // construction plus set_rates stays inside the engines' per-element
  // budget. The rates repeat every 97 connections: exact ties throughout.
  constexpr std::size_t kConnections = 10000;
  const ffc::network::Topology topo =
      ffc::network::single_bottleneck(kConnections, 1.0);
  std::vector<double> rates(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    rates[i] = static_cast<double>(1 + i % 97) / (98.0 * kConnections);
  }
  const std::uint64_t elements = 1 + 2 * kConnections;

  const std::uint64_t bytes = construction_bytes(
      topo, [&rates](ffc::network::Topology t) {
        auto engine = std::make_unique<NetworkSimulator>(
            std::move(t), SimDiscipline::FairShare, 7);
        engine->set_rates(rates);
        return engine;
      });
  EXPECT_LE(bytes, kBytesPerElement * elements);
}

}  // namespace
