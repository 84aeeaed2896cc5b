// Parallel parameter-sweep execution with deterministic, thread-count-
// independent results.
//
// SweepRunner fans the points of a ParamGrid out across a ThreadPool and
// collects the task results *in grid order*: results[i] always corresponds
// to grid.point(i), no matter which worker computed it or when it finished.
// Each task receives its own RNG seed derived from (base_seed, grid index)
// via SplitMix64 -- never a shared generator -- so a sweep's output is
// bit-identical at any --jobs value (the scheme, and why shared-RNG sweeps
// are forbidden, is documented in docs/DETERMINISM.md).
//
// Observability rides along for free: per-task wall time lands in a
// SweepReport (printable as a table, serializable as JSON), and every task
// gets its own obs::MetricRegistry -- written lock-free by exactly one
// worker, merged in grid order afterwards -- so the SweepManifest (per-task
// seed, grid point, duration, metrics) is identical at any thread count
// except for wall-clock fields (docs/OBSERVABILITY.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/param_grid.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace ffc::report {
class JsonWriter;
}

namespace ffc::exec {

/// Derives the RNG seed for task `task_index` of a sweep with master seed
/// `base_seed`:
///
///   seed_i = SplitMix64(SplitMix64(base_seed).next() + i).next()
///
/// i.e. the base seed is finalized once, the task index offsets the
/// resulting state, and a second finalization scatters it. Consecutive
/// indices land on consecutive SplitMix64 states, whose outputs are
/// pairwise distinct over any 2^64 window -- per-task streams never
/// collide within a sweep. The combination is deliberately asymmetric in
/// (base, index) so seed_i(a, b) != seed_i(b, a). Pure function of its two
/// arguments: no global state, no ordering sensitivity.
std::uint64_t derive_task_seed(std::uint64_t base_seed,
                               std::uint64_t task_index);

/// Knobs for one sweep.
struct SweepOptions {
  std::size_t jobs = 1;           ///< worker threads; 0 => hardware_jobs()
  std::uint64_t base_seed = 1;    ///< master seed; per-task seeds derive from it
};

/// Timing summary of one sweep, filled in by SweepRunner::run.
struct SweepReport {
  std::size_t tasks = 0;          ///< grid points executed
  std::size_t jobs = 0;           ///< workers used: min(jobs, tasks), >= 1
  double wall_seconds = 0.0;      ///< end-to-end sweep wall time
  double total_task_seconds = 0.0;///< sum of per-task wall times
  double min_task_seconds = 0.0;
  double max_task_seconds = 0.0;

  /// Tasks completed per wall-clock second.
  double tasks_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(tasks) / wall_seconds
                              : 0.0;
  }

  /// Ratio of summed per-task wall time to sweep wall time: how much task
  /// execution overlapped in time (<= jobs). On a machine with >= jobs
  /// cores this is the parallel speedup; with fewer cores, overlapped tasks
  /// share cores and the ratio overstates the wall-clock gain.
  double speedup() const {
    return wall_seconds > 0.0 ? total_task_seconds / wall_seconds : 0.0;
  }

  /// Renders a one-table summary (tasks, jobs, wall, tasks/s, min/mean/max
  /// task time) to `os`. Experiments print this to stderr so stdout stays
  /// byte-comparable across --jobs values.
  void print(std::ostream& os) const;

  /// Emits the report as one JSON object. Every field except "tasks" and
  /// "jobs" is wall-clock-derived; the manifest nests this object under
  /// "execution", the one section allowed to differ across --jobs values.
  void write_json(report::JsonWriter& w) const;
};

/// One task's entry in a SweepManifest.
struct SweepTaskRecord {
  std::size_t index = 0;        ///< flat grid index
  std::uint64_t seed = 0;       ///< derive_task_seed(base_seed, index)
  std::vector<double> coords;   ///< grid coordinates, one per axis
  double seconds = 0.0;         ///< task wall time (timing field)
  obs::MetricRegistry metrics;  ///< task-local metrics, written lock-free
};

/// Machine-readable record of one sweep: what ran, with which seeds, how
/// long it took, and what the tasks measured. Everything except the
/// "execution" object and "seconds" keys is a pure function of (grid,
/// base_seed, task function), so manifests from different --jobs values are
/// byte-identical after stripping those timing fields.
struct SweepManifest {
  std::uint64_t base_seed = 0;
  std::vector<std::string> axes;       ///< axis names, grid order
  std::vector<SweepTaskRecord> tasks;  ///< one per grid point, grid order
  SweepReport execution;               ///< timing (jobs, wall, throughput)
  obs::MetricRegistry merged;          ///< all task registries, merged

  /// Writes the manifest as one JSON value (schema ffc.sweep_manifest.v1,
  /// documented in docs/OBSERVABILITY.md).
  void write_json(report::JsonWriter& w) const;

  /// Writes a complete pretty-printed JSON document to `os`.
  void write_json(std::ostream& os) const;
};

/// Writes `manifest` to `path` as a JSON document. Returns false (with a
/// diagnostic on stderr) if the file cannot be written -- callers should
/// exit nonzero rather than pretend the artifact exists.
bool write_manifest(const SweepManifest& manifest, const std::string& path);

/// Runs a function over every point of a ParamGrid, in parallel, collecting
/// results in deterministic grid order.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// The resolved worker count (options.jobs, with 0 expanded).
  std::size_t jobs() const { return jobs_; }
  std::uint64_t base_seed() const { return options_.base_seed; }

  /// Applies `fn` to every grid point and returns the results indexed by
  /// grid point, i.e. result[i] == fn(grid.point(i),
  /// derive_task_seed(base_seed, i)). Two task signatures are accepted:
  ///
  ///   R fn(const GridPoint&, std::uint64_t seed)
  ///   R fn(const GridPoint&, std::uint64_t seed, obs::MetricRegistry&)
  ///
  /// The three-argument form hands the task its private MetricRegistry;
  /// whatever it records shows up in last_manifest() (per task and merged).
  ///
  /// The sweep starts min(jobs, grid size) workers: with one, it runs inline
  /// on the calling thread (no pool); otherwise tasks are fanned across a
  /// fresh ThreadPool of that many threads. Either way the
  /// result vector -- and therefore anything serialized from it -- is
  /// identical, because fn receives identical (point, seed) pairs and
  /// results land in their grid slot.
  ///
  /// If any task throws, the exception for the lowest-indexed failing point
  /// is rethrown after all in-flight tasks finish.
  template <typename Fn>
  auto run(const ParamGrid& grid, Fn&& fn) {
    if constexpr (std::is_invocable_v<Fn&, const GridPoint&, std::uint64_t,
                                      obs::MetricRegistry&>) {
      return run_impl(grid, fn);
    } else {
      return run_impl(grid,
                      [&fn](const GridPoint& p, std::uint64_t seed,
                            obs::MetricRegistry&) { return fn(p, seed); });
    }
  }

  /// Timing of the most recent run().
  const SweepReport& last_report() const { return report_; }

  /// Full manifest (seeds, grid points, durations, metrics) of the most
  /// recent run().
  const SweepManifest& last_manifest() const { return manifest_; }

 private:
  template <typename Fn>
  auto run_impl(const ParamGrid& grid, Fn&& fn)
      -> std::vector<decltype(fn(std::declval<const GridPoint&>(),
                                 std::uint64_t{},
                                 std::declval<obs::MetricRegistry&>()))> {
    using R = decltype(fn(std::declval<const GridPoint&>(), std::uint64_t{},
                          std::declval<obs::MetricRegistry&>()));
    const std::size_t n = grid.size();
    std::vector<std::optional<R>> slots(n);
    std::vector<double> task_seconds(n, 0.0);
    std::vector<obs::MetricRegistry> task_metrics(n);

    const auto sweep_start = std::chrono::steady_clock::now();
    auto run_one = [&](std::size_t i) {
      const GridPoint point = grid.point(i);
      const std::uint64_t seed = derive_task_seed(options_.base_seed, i);
      const auto t0 = std::chrono::steady_clock::now();
      slots[i].emplace(fn(point, seed, task_metrics[i]));
      task_seconds[i] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    };

    // A thread per task at most: a --jobs far above the grid size must not
    // start threads that could never receive a task.
    const std::size_t workers = std::max<std::size_t>(1, std::min(jobs_, n));
    if (workers == 1) {
      for (std::size_t i = 0; i < n; ++i) run_one(i);
    } else {
      std::vector<std::future<void>> futures;
      futures.reserve(n);
      {
        ThreadPool pool(workers);
        for (std::size_t i = 0; i < n; ++i) {
          futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
        }
        // Pool destructor drains the queue; get() below rethrows the
        // lowest-index failure.
      }
      for (auto& future : futures) future.get();
    }

    finish_report(n, workers, task_seconds, sweep_start);
    finish_manifest(grid, task_seconds, std::move(task_metrics));

    std::vector<R> results;
    results.reserve(n);
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

  void finish_report(std::size_t tasks, std::size_t workers,
                     const std::vector<double>& task_seconds,
                     std::chrono::steady_clock::time_point sweep_start);
  void finish_manifest(const ParamGrid& grid,
                       const std::vector<double>& task_seconds,
                       std::vector<obs::MetricRegistry>&& task_metrics);

  SweepOptions options_;
  std::size_t jobs_ = 1;
  SweepReport report_;
  SweepManifest manifest_;
};

}  // namespace ffc::exec
