// The execution layer: ThreadPool lifecycle and exception safety, ParamGrid
// enumeration order, seed derivation, and the headline guarantee -- a sweep
// is element-for-element identical at any thread count.
#include "exec/cli.hpp"
#include "exec/param_grid.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "stats/rng.hpp"

namespace {

using namespace ffc;
using exec::derive_task_seed;
using exec::GridPoint;
using exec::ParamGrid;
using exec::SweepOptions;
using exec::SweepRunner;
using exec::ThreadPool;

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++counter;
      });
    }
    // No explicit wait: ~ThreadPool must run all 100 before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValuesThroughFutures) {
  ThreadPool pool(3);
  auto f1 = pool.submit([] { return 6 * 7; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, TaskExceptionsArriveViaFutureNotWorker) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 1; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive and serving.
  EXPECT_EQ(good.get(), 1);
  auto again = pool.submit([] { return 2; });
  EXPECT_EQ(again.get(), 2);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorSurvivesPendingThrowingTasks) {
  // Every exception lands in the task's future; dropping the futures
  // discards them, and ~ThreadPool still drains the queue without
  // terminating.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      (void)pool.submit([&counter] {
        ++counter;
        throw std::runtime_error("discarded at destruction");
      });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

// ---- ParamGrid -----------------------------------------------------------

TEST(ParamGrid, RowMajorEnumerationLastAxisFastest) {
  ParamGrid grid;
  grid.axis("a", {1.0, 2.0}).axis("b", {10.0, 20.0, 30.0});
  ASSERT_EQ(grid.size(), 6u);
  const double expected[6][2] = {{1, 10}, {1, 20}, {1, 30},
                                 {2, 10}, {2, 20}, {2, 30}};
  for (std::size_t i = 0; i < 6; ++i) {
    const GridPoint p = grid.point(i);
    EXPECT_EQ(p.index(), i);
    EXPECT_EQ(p.get("a"), expected[i][0]) << "point " << i;
    EXPECT_EQ(p.get("b"), expected[i][1]) << "point " << i;
    ASSERT_EQ(p.coords().size(), 2u);
    EXPECT_EQ(p.coords()[0], expected[i][0]);
    EXPECT_EQ(p.coords()[1], expected[i][1]);
  }
}

TEST(ParamGrid, NoAxesIsTheEmptyProduct) {
  ParamGrid grid;
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_TRUE(grid.point(0).coords().empty());
}

TEST(ParamGrid, EmptyAxisMakesGridEmpty) {
  ParamGrid grid;
  grid.axis("a", {1.0, 2.0}).axis("b", {});
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_THROW(grid.point(0), std::out_of_range);
}

TEST(ParamGrid, SizeOverflowIsRejectedNotWrapped) {
  // digits - 1 two-valued axes make the largest power of two a size_t
  // holds; one more would wrap the product to 0, a sweep of no cells.
  constexpr int kBits = std::numeric_limits<std::size_t>::digits;
  ParamGrid grid;
  for (int d = 0; d + 1 < kBits; ++d) {
    grid.axis("a" + std::to_string(d), {0.0, 1.0});
  }
  const std::size_t largest = std::size_t{1} << (kBits - 1);
  ASSERT_EQ(grid.size(), largest);
  EXPECT_THROW(grid.axis("wraps", {0.0, 1.0}), std::length_error);
  EXPECT_EQ(grid.num_axes(), static_cast<std::size_t>(kBits - 1));
  EXPECT_EQ(grid.size(), largest);
  // A one-valued axis keeps the product, and an empty axis zeroes it, so
  // neither can overflow.
  grid.axis("single", {2.0}).axis("empty", {});
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_NO_THROW(grid.axis("after_empty", {0.0, 1.0, 2.0}));
}

TEST(ParamGrid, UnknownAxisNameThrows) {
  ParamGrid grid;
  grid.axis("eta", {0.1});
  EXPECT_THROW(grid.point(0).get("mu"), std::out_of_range);
}

TEST(ParamGrid, LinspaceHitsEndpointsExactly) {
  const auto v = ParamGrid::linspace(0.1, 0.7, 7);
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(v.front(), 0.1);
  EXPECT_EQ(v.back(), 0.7);
  EXPECT_NEAR(v[3], 0.4, 1e-12);
}

TEST(ParamGrid, ArangeComputesValuesWithoutAccumulation) {
  const auto v = ParamGrid::arange(0.05, 0.2605, 0.0025);
  ASSERT_EQ(v.size(), 85u);
  EXPECT_EQ(v.front(), 0.05);
  // Each value is lo + i*step exactly, not a running sum.
  EXPECT_EQ(v[84], 0.05 + 84 * 0.0025);
}

// ---- seed derivation -----------------------------------------------------

TEST(DeriveTaskSeed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 2ULL, 0xdeadbeefULL}) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      seen.insert(derive_task_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 3000u);  // no collisions across 3 bases x 1000 tasks
}

TEST(DeriveTaskSeed, PureFunctionOfItsArguments) {
  EXPECT_EQ(derive_task_seed(42, 17), derive_task_seed(42, 17));
  EXPECT_NE(derive_task_seed(42, 17), derive_task_seed(43, 17));
  EXPECT_NE(derive_task_seed(42, 17), derive_task_seed(42, 18));
}

// ---- SweepRunner ---------------------------------------------------------

// A task with real RNG usage: draws depend only on the per-task seed.
double noisy_task(const GridPoint& p, std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  double acc = p.get("x") * 100.0 + p.get("y");
  for (int i = 0; i < 1000; ++i) acc += rng.uniform01();
  return acc;
}

TEST(SweepRunner, DeterministicAcrossThreadCounts) {
  ParamGrid grid;
  grid.axis("x", ParamGrid::linspace(0.0, 1.0, 6))
      .axis("y", ParamGrid::linspace(-3.0, 3.0, 7));

  SweepRunner serial(SweepOptions{.jobs = 1, .base_seed = 99});
  SweepRunner parallel(SweepOptions{.jobs = 4, .base_seed = 99});
  const auto a = serial.run(grid, noisy_task);
  const auto b = parallel.run(grid, noisy_task);

  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "jobs=1 and jobs=4 disagree at grid index " << i;
  }
}

// The workspace-threaded analytic hot path inside a sweep: every task owns
// a ModelWorkspace and iterates the unchecked fast path. Results must stay
// bitwise identical across thread counts -- pins that the workspace rewrite
// kept tasks share-nothing (also exercised under TSan via FFC_SANITIZE).
TEST(SweepRunner, ModelWorkspaceTasksDeterministicAcrossThreadCounts) {
  ParamGrid grid;
  grid.axis("eta", ParamGrid::linspace(0.05, 0.4, 4))
      .axis("load", ParamGrid::linspace(0.3, 1.4, 5));

  const auto task = [](const GridPoint& p, std::uint64_t seed) {
    auto model = core::FlowControlModel(
        network::single_bottleneck(8, 1.0),
        std::make_shared<queueing::FairShare>(),
        std::make_shared<core::RationalSignal>(),
        core::FeedbackStyle::Individual,
        std::make_shared<core::AdditiveTsi>(p.get("eta"), 0.5));
    core::ModelWorkspace ws;
    stats::Xoshiro256 rng(seed);
    std::vector<double> rates(8);
    for (auto& r : rates) r = p.get("load") / 8.0 * (0.5 + rng.uniform01());
    rates = model.step(rates, ws);
    for (int it = 0; it < 50; ++it) {
      rates = model.step_unchecked(rates, ws);
    }
    double acc = 0.0;
    for (double r : rates) acc += r;
    return acc;
  };

  SweepRunner serial(SweepOptions{.jobs = 1, .base_seed = 7});
  SweepRunner parallel(SweepOptions{.jobs = 4, .base_seed = 7});
  const auto a = serial.run(grid, task);
  const auto b = parallel.run(grid, task);
  ASSERT_EQ(a.size(), grid.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "grid index " << i;
  }
}

TEST(SweepRunner, DifferentBaseSeedsChangeResults) {
  ParamGrid grid;
  grid.axis("x", {0.5}).axis("y", {0.5});
  SweepRunner r1(SweepOptions{.jobs = 2, .base_seed = 1});
  SweepRunner r2(SweepOptions{.jobs = 2, .base_seed = 2});
  EXPECT_NE(r1.run(grid, noisy_task)[0], r2.run(grid, noisy_task)[0]);
}

TEST(SweepRunner, ResultsArriveInGridOrder) {
  ParamGrid grid;
  grid.axis("i", ParamGrid::linspace(0.0, 31.0, 32));
  SweepRunner runner(SweepOptions{.jobs = 4});
  // Make early tasks slow so completion order inverts submission order.
  const auto out = runner.run(grid, [](const GridPoint& p, std::uint64_t) {
    if (p.index() < 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return p.get("i");
  });
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<double>(i));
  }
}

TEST(SweepRunner, TaskExceptionRethrownToCaller) {
  ParamGrid grid;
  grid.axis("i", ParamGrid::linspace(0.0, 9.0, 10));
  SweepRunner runner(SweepOptions{.jobs = 3});
  EXPECT_THROW(runner.run(grid,
                          [](const GridPoint& p, std::uint64_t) -> int {
                            if (p.index() == 5) {
                              throw std::runtime_error("task 5 failed");
                            }
                            return 0;
                          }),
               std::runtime_error);
}

TEST(SweepRunner, ReportCountsTasksAndTime) {
  ParamGrid grid;
  grid.axis("x", ParamGrid::linspace(0.0, 3.0, 4))
      .axis("y", ParamGrid::linspace(0.0, 1.0, 2));
  SweepRunner runner(SweepOptions{.jobs = 2, .base_seed = 5});
  runner.run(grid, noisy_task);
  const auto& report = runner.last_report();
  EXPECT_EQ(report.tasks, 8u);
  EXPECT_EQ(report.jobs, 2u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GE(report.max_task_seconds, report.min_task_seconds);
  EXPECT_GE(report.total_task_seconds, report.max_task_seconds);
}

// A sweep starts at most one worker per task. jobs = SIZE_MAX on a 3-point
// grid must start three threads and return the jobs = 1 results; an uncapped
// pool's reserve(SIZE_MAX) throws std::length_error before any thread starts,
// so the test asks the OS for no more than three threads either way.
TEST(SweepRunner, JobsCappedAtTaskCount) {
  ParamGrid grid;
  grid.axis("x", ParamGrid::linspace(0.0, 1.0, 3)).axis("y", {0.5});
  SweepRunner serial(SweepOptions{.jobs = 1, .base_seed = 11});
  SweepRunner capped(SweepOptions{.jobs = SIZE_MAX, .base_seed = 11});
  const auto a = serial.run(grid, noisy_task);
  const auto b = capped.run(grid, noisy_task);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "grid index " << i;
  }
  EXPECT_EQ(capped.last_report().jobs, 3u);
  EXPECT_EQ(serial.last_report().jobs, 1u);

  // One task runs inline on the caller, whatever --jobs says.
  ParamGrid one;
  one.axis("x", {0.5}).axis("y", {0.5});
  SweepRunner four(SweepOptions{.jobs = 4, .base_seed = 11});
  EXPECT_EQ(four.run(one, noisy_task)[0], serial.run(one, noisy_task)[0]);
  EXPECT_EQ(four.last_report().jobs, 1u);
}

TEST(SweepRunner, JobsZeroExpandsToHardware) {
  SweepRunner runner(SweepOptions{.jobs = 0});
  EXPECT_EQ(runner.jobs(), ThreadPool::hardware_jobs());
  EXPECT_GE(runner.jobs(), 1u);
}

// ---- PR 4: the strict argv parse helpers every example routes through ----

TEST(ParseHelpers, U64AcceptsOnlyFullDecimalStrings) {
  std::uint64_t v = 77;
  EXPECT_TRUE(exec::parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(exec::parse_u64("18446744073709551615", v));  // UINT64_MAX
  EXPECT_EQ(v, 18446744073709551615ull);
  for (const char* bad : {"", "12x", "x12", "-3", "+3", " 7", "7 ", "0x11",
                          "1.5", "18446744073709551616"}) {
    v = 77;
    EXPECT_FALSE(exec::parse_u64(bad, v)) << bad;
    EXPECT_EQ(v, 77u) << "out must be untouched on failure: " << bad;
  }
}

TEST(ParseHelpers, SizeMirrorsU64WithinRange) {
  std::size_t n = 5;
  EXPECT_TRUE(exec::parse_size("42", n));
  EXPECT_EQ(n, 42u);
  n = 5;
  EXPECT_FALSE(exec::parse_size("42seven", n));
  EXPECT_FALSE(exec::parse_size("-2", n));
  EXPECT_EQ(n, 5u);
}

TEST(ParseHelpers, DoubleRequiresFullFiniteNumbers) {
  double x = -1.0;
  EXPECT_TRUE(exec::parse_double("0.5", x));
  EXPECT_DOUBLE_EQ(x, 0.5);
  EXPECT_TRUE(exec::parse_double("-2.25", x));  // negatives are the
  EXPECT_DOUBLE_EQ(x, -2.25);                   // caller's range check
  EXPECT_TRUE(exec::parse_double("1e-3", x));
  EXPECT_DOUBLE_EQ(x, 1e-3);
  for (const char* bad : {"", "nope", "0.5x", " 1", "1 ", "inf", "-inf",
                          "nan", "1e999"}) {
    x = -1.0;
    EXPECT_FALSE(exec::parse_double(bad, x)) << bad;
    EXPECT_DOUBLE_EQ(x, -1.0) << "out must be untouched on failure: " << bad;
  }
}

}  // namespace
