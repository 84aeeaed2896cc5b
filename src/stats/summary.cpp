#include "stats/summary.hpp"

#include <algorithm>
#include <stdexcept>

namespace ffc::stats {

void OnlineStats::add(double x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

TimeWeightedStats::TimeWeightedStats(double start_time, double initial_value)
    : start_time_(start_time), last_time_(start_time), value_(initial_value) {}

void TimeWeightedStats::update(double now, double new_value) {
  advance_to(now);
  value_ = new_value;
}

void TimeWeightedStats::advance_to(double now) {
  if (now < last_time_) {
    throw std::invalid_argument("TimeWeightedStats: time moved backwards");
  }
  integral_ += value_ * (now - last_time_);
  last_time_ = now;
}

void TimeWeightedStats::reset(double now) {
  if (now < last_time_) {
    throw std::invalid_argument("TimeWeightedStats: time moved backwards");
  }
  start_time_ = now;
  last_time_ = now;
  integral_ = 0.0;
}

double TimeWeightedStats::time_average() const {
  const double span = last_time_ - start_time_;
  if (span <= 0.0) return 0.0;
  return integral_ / span;
}

}  // namespace ffc::stats
