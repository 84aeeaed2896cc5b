#include "exec/sweep_runner.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <ostream>

#include "report/json.hpp"
#include "report/table.hpp"
#include "stats/rng.hpp"

namespace ffc::exec {

std::uint64_t derive_task_seed(std::uint64_t base_seed,
                               std::uint64_t task_index) {
  const std::uint64_t mixed_base = stats::SplitMix64(base_seed).next();
  return stats::SplitMix64(mixed_base + task_index).next();
}

void SweepReport::print(std::ostream& os) const {
  report::TextTable table({"tasks", "jobs", "wall s", "tasks/s", "speedup",
                           "task s (min/mean/max)"});
  table.set_title("sweep timing");
  const double mean =
      tasks > 0 ? total_task_seconds / static_cast<double>(tasks) : 0.0;
  table.add_row({std::to_string(tasks), std::to_string(jobs),
                 report::fmt(wall_seconds, 3),
                 report::fmt(tasks_per_second(), 1),
                 report::fmt(speedup(), 2),
                 report::fmt(min_task_seconds, 4) + " / " +
                     report::fmt(mean, 4) + " / " +
                     report::fmt(max_task_seconds, 4)});
  table.print(os);
}

void SweepReport::write_json(report::JsonWriter& w) const {
  w.begin_object();
  w.kv("tasks", tasks);
  w.kv("jobs", jobs);
  w.kv("wall_seconds", wall_seconds);
  w.kv("total_task_seconds", total_task_seconds);
  w.kv("min_task_seconds", min_task_seconds);
  w.kv("max_task_seconds", max_task_seconds);
  w.kv("tasks_per_second", tasks_per_second());
  w.kv("speedup", speedup());
  w.end_object();
}

void SweepManifest::write_json(report::JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", "ffc.sweep_manifest.v1");
  w.kv("base_seed", base_seed);
  w.key("axes").begin_array();
  for (const auto& name : axes) w.value(name);
  w.end_array();
  w.key("execution");
  execution.write_json(w);
  w.key("merged_metrics");
  merged.write_json(w);
  w.key("tasks").begin_array();
  for (const auto& task : tasks) {
    w.begin_object();
    w.kv("index", task.index);
    w.kv("seed", task.seed);
    w.key("point").begin_object();
    for (std::size_t a = 0; a < axes.size() && a < task.coords.size(); ++a) {
      w.kv(axes[a], task.coords[a]);
    }
    w.end_object();
    w.kv("seconds", task.seconds);
    if (!task.metrics.empty()) {
      w.key("metrics");
      task.metrics.write_json(w);
    }
    w.end_object();
  }
  w.end_array();
  // Written last so the count covers every double in the document.
  w.kv("non_finite_values", w.non_finite_count());
  w.end_object();
}

void SweepManifest::write_json(std::ostream& os) const {
  report::JsonWriter w(os, /*indent=*/2);
  write_json(w);
  w.close();
}

bool write_manifest(const SweepManifest& manifest, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open metrics output file '" << path << "'\n";
    return false;
  }
  manifest.write_json(out);
  if (!out) {
    std::cerr << "error: failed writing metrics to '" << path << "'\n";
    return false;
  }
  return true;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  jobs_ = options_.jobs == 0 ? ThreadPool::hardware_jobs() : options_.jobs;
}

void SweepRunner::finish_report(
    std::size_t tasks, std::size_t workers,
    const std::vector<double>& task_seconds,
    std::chrono::steady_clock::time_point sweep_start) {
  report_ = SweepReport{};
  report_.tasks = tasks;
  report_.jobs = workers;
  report_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  report_.total_task_seconds =
      std::accumulate(task_seconds.begin(), task_seconds.end(), 0.0);
  if (tasks > 0) {
    report_.min_task_seconds =
        *std::min_element(task_seconds.begin(), task_seconds.end());
    report_.max_task_seconds =
        *std::max_element(task_seconds.begin(), task_seconds.end());
  }
}

void SweepRunner::finish_manifest(
    const ParamGrid& grid, const std::vector<double>& task_seconds,
    std::vector<obs::MetricRegistry>&& task_metrics) {
  manifest_ = SweepManifest{};
  manifest_.base_seed = options_.base_seed;
  manifest_.execution = report_;
  for (std::size_t a = 0; a < grid.num_axes(); ++a) {
    manifest_.axes.push_back(grid.axis_at(a).name);
  }
  manifest_.tasks.reserve(task_metrics.size());
  for (std::size_t i = 0; i < task_metrics.size(); ++i) {
    SweepTaskRecord record;
    record.index = i;
    record.seed = derive_task_seed(options_.base_seed, i);
    record.coords = grid.point(i).coords();
    record.seconds = task_seconds[i];
    record.metrics = std::move(task_metrics[i]);
    // Merge in grid order: associative/commutative per kind, but a fixed
    // order keeps even floating-point gauge sums bit-identical.
    manifest_.merged.merge(record.metrics);
    manifest_.tasks.push_back(std::move(record));
  }
}

}  // namespace ffc::exec
