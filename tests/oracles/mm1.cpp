#include "oracles/mm1.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "queueing/feasibility.hpp"

namespace ffc::oracles {

using queueing::g;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Mm1::Mm1(double lambda, double mu) : lambda_(lambda), mu_(mu) {
  if (!(mu > 0.0)) throw std::invalid_argument("Mm1: mu must be > 0");
  if (lambda < 0.0) throw std::invalid_argument("Mm1: lambda must be >= 0");
}

double Mm1::utilization() const { return lambda_ / mu_; }

bool Mm1::stable() const { return lambda_ < mu_; }

double Mm1::mean_number_in_system() const { return g(utilization()); }

double Mm1::mean_number_in_queue() const {
  if (!stable()) return kInf;
  const double rho = utilization();
  return rho * rho / (1.0 - rho);
}

double Mm1::mean_time_in_system() const {
  if (!stable()) return kInf;
  return 1.0 / (mu_ - lambda_);
}

double Mm1::mean_waiting_time() const {
  if (!stable()) return kInf;
  return utilization() / (mu_ - lambda_);
}

double Mm1::prob_n_in_system(std::size_t n) const {
  if (!stable()) return 0.0;
  const double rho = utilization();
  return (1.0 - rho) * std::pow(rho, static_cast<double>(n));
}

}  // namespace ffc::oracles
