#include "oracles/ks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffc::oracles {

double ks_statistic(std::vector<double> samples,
                    const std::function<double(double)>& cdf) {
  if (samples.empty()) {
    throw std::invalid_argument("ks_statistic: need samples");
  }
  if (!cdf) throw std::invalid_argument("ks_statistic: empty cdf");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    worst = std::max({worst, std::fabs(f - lo), std::fabs(f - hi)});
  }
  return worst;
}

double ks_critical_value_5pct(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("ks_critical_value: n must be >= 1");
  }
  return 1.358 / std::sqrt(static_cast<double>(n));
}

}  // namespace ffc::oracles
