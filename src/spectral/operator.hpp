// Matrix-free Jacobian-vector products for the flow-control map.
//
// The dense path (core/stability.hpp) materializes DF column by column: 2N
// model evaluations and O(N^2) memory. For the large-N engine we only ever
// need the ACTION of DF on a vector,
//
//   DF(r) x  ~=  [F(r + h x) - F(r - h x)] / (2 h),
//
// which costs two model evaluations per application regardless of N and
// never forms the matrix. Combined with the iterative eigensolver
// (linalg/sparse_eigen.hpp) this yields spectral radii at N = 10^5..10^6 in
// O(N log N) time per iteration and O(N) memory (docs/SCALING.md).
//
// The model map is only defined for nonnegative rates, so the directional
// step is clamped to keep both probes feasible; near the r_i = 0 boundary
// the operator degrades to a one-sided difference exactly like the dense
// Jacobian's Forward/Backward schemes.
#pragma once

#include <cstddef>
#include <vector>

#include "core/model.hpp"
#include "linalg/sparse_eigen.hpp"

namespace ffc::spectral {

/// Options for the directional finite difference.
///
/// The default step balances O(h^2) truncation against the roundoff noise
/// floor, which at large N is dominated by the O(N)-term load sums inside
/// the model (measured ~1e-12/h relative at N = 1e5, so h = 1e-5 leaves
/// ~1e-7 relative accuracy in the Jacobian action -- docs/SCALING.md).
struct JvpOptions {
  double relative_step = 1e-5;  ///< h ~ relative_step * ||r||_inf / ||x||_inf
  double step_floor = 1e-7;     ///< absolute floor for the nominal step
};

/// LinearOperator computing y = DF(r) x by central differences of the model
/// map around a fixed base point r. All model evaluations run through one
/// reusable ModelWorkspace: after the first application the warm path
/// performs zero heap allocations (pinned in tests/test_alloc.cpp).
class ModelJacobianOperator final : public linalg::LinearOperator {
 public:
  /// Validates `base_rates` once (size, finiteness, nonnegativity) by
  /// evaluating F(base) through the model's checked entry point. Throws
  /// std::invalid_argument unless both step options are finite and > 0.
  ModelJacobianOperator(const core::FlowControlModel& model,
                        std::vector<double> base_rates,
                        const JvpOptions& options = {});

  std::size_t dim() const override { return base_.size(); }
  void apply(const linalg::Vector& x, linalg::Vector& y) const override;

  /// Re-centres the operator at a new base point: re-validates, refreshes
  /// the cached F(base), and recomputes the nominal step from the new
  /// ||base||_inf. Without this, re-centring required rebuilding the
  /// operator -- the ctor computed the step once, and a stale step sized for
  /// the old base poisons the difference quotient after the base moves.
  void rebase(std::vector<double> base_rates);

  /// Number of model evaluations performed so far (2 per warm apply).
  std::size_t evaluations() const { return evals_; }

  const std::vector<double>& base_rates() const { return base_; }

 private:
  const core::FlowControlModel* model_;
  std::vector<double> base_;
  std::vector<double> f_base_;  ///< F(base), for one-sided fallbacks
  JvpOptions options_;
  double nominal_step_;  ///< relative_step * max(||base||_inf, floor-scale)
  mutable core::ModelWorkspace ws_;
  mutable std::vector<double> probe_;
  mutable std::vector<double> f_plus_;
  mutable std::size_t evals_ = 0;
};

}  // namespace ffc::spectral
