// The one-sample Kolmogorov-Smirnov test the simulator tests use to check
// simulated delay distributions against closed forms.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace ffc::oracles {

/// Kolmogorov-Smirnov statistic: the max distance between the empirical CDF
/// of `samples` and the reference CDF `cdf` (a callable double -> double,
/// nondecreasing into [0, 1]). Sorts a copy of the samples; O(n log n).
/// Used to validate simulated delay distributions against closed forms
/// (FIFO M/M/1 sojourn times are Exp(mu - lambda)).
double ks_statistic(std::vector<double> samples,
                    const std::function<double(double)>& cdf);

/// Critical value of the two-sided one-sample KS test at ~5% significance
/// for n samples (asymptotic 1.358 / sqrt(n)). Requires n >= 1.
double ks_critical_value_5pct(std::size_t n);

}  // namespace ffc::oracles
