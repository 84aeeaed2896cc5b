// Matrix-free Jacobian-vector products for the flow-control map by
// central differences:
//
//   DF(r) x  ~=  [F(r + h x) - F(r - h x)] / (2 h),
//
// two model evaluations per application regardless of N, never forming
// the matrix. Combined with the iterative eigensolver (linalg/
// sparse_eigen.hpp) this yields spectral radii at N = 10^5..10^6 in
// O(N log N) time per iteration and O(N) memory (docs/SCALING.md); the
// dense path materializes it with N applications to e_j when a model layer
// has no closed-form derivative (spectral/analytic.hpp).
//
// The model map is only defined for nonnegative rates, so the directional
// step is clamped to keep both probes feasible; near the r_i = 0 boundary
// the operator degrades to a one-sided difference from the cached F(r).
#pragma once

#include <cstddef>
#include <vector>

#include "core/model.hpp"
#include "core/stability.hpp"
#include "linalg/sparse_eigen.hpp"

namespace ffc::spectral {

/// LinearOperator computing y = DF(r) x by central differences of the model
/// map around a fixed base point r. All model evaluations run through one
/// reusable ModelWorkspace: after the first application the warm path
/// performs zero heap allocations (pinned in tests/test_alloc.cpp).
class ModelJacobianOperator final : public linalg::LinearOperator {
 public:
  /// Validates `base_rates` once (size, finiteness, nonnegativity) by
  /// evaluating F(base) through the model's checked entry point, caches
  /// F(base) and sizes the nominal step from ||base||_inf. Throws
  /// std::invalid_argument unless both step options are finite and > 0.
  ModelJacobianOperator(const core::FlowControlModel& model,
                        std::vector<double> base_rates,
                        const core::JvpOptions& options = {});

  std::size_t dim() const override { return base_.size(); }
  void apply(const linalg::Vector& x, linalg::Vector& y) const override;

  /// Number of model evaluations performed so far (2 per warm apply).
  std::size_t evaluations() const { return evals_; }

 private:
  const core::FlowControlModel* model_;
  std::vector<double> base_;
  std::vector<double> f_base_;  ///< F(base), for one-sided fallbacks
  core::JvpOptions options_;
  double nominal_step_;  ///< relative_step * max(||base||_inf, floor-scale)
  mutable core::ModelWorkspace ws_;
  mutable std::vector<double> probe_;
  mutable std::vector<double> f_plus_;
  mutable std::size_t evals_ = 0;
};

}  // namespace ffc::spectral
