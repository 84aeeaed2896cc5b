#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffc::stats {

void OnlineStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::ci_halfwidth(double z) const {
  if (n_ < 2) return 0.0;
  return z * stddev() / std::sqrt(static_cast<double>(n_));
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ += delta * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
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
