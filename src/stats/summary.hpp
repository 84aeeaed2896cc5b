// Online statistical accumulators used by the discrete-event simulator.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace ffc::stats {

/// Welford's online mean/variance accumulator for i.i.d.-style samples
/// (packet delays, service times, ...). Numerically stable; O(1) memory.
class OnlineStats {
 public:
  /// Adds one sample.
  void add(double x);

  std::size_t count() const { return n_; }
  /// Mean of the samples; 0 if no samples were added.
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Half-width of a normal-approximation confidence interval around the
  /// mean, e.g. z = 1.96 for 95%. Returns 0 with fewer than two samples.
  double ci_halfwidth(double z = 1.96) const;

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// packets of a connection present at a gateway. The signal's value is
/// updated at event instants; the accumulator integrates value * dt.
class TimeWeightedStats {
 public:
  /// Starts accumulation at `start_time` with the signal at `initial_value`.
  explicit TimeWeightedStats(double start_time = 0.0,
                             double initial_value = 0.0);

  /// Records that the signal changes to `new_value` at time `now`.
  /// `now` must be >= the previous update time.
  void update(double now, double new_value);

  /// Advances the integration to `now` without changing the value.
  void advance_to(double now);

  /// Discards all accumulated history and restarts the integration at `now`
  /// with the current value (used to drop the warm-up transient).
  void reset(double now);

  /// Time-average of the signal over [start, last update]. 0 if no time has
  /// elapsed.
  double time_average() const;

  /// Total observation time.
  double elapsed() const { return last_time_ - start_time_; }

  /// Current value of the signal.
  double value() const { return value_; }

 private:
  double start_time_;
  double last_time_;
  double value_;
  double integral_ = 0.0;
};

}  // namespace ffc::stats
