#include "linalg/sparse_eigen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/eigen.hpp"

namespace ffc::linalg {

namespace {

constexpr double kTiny = 1e-300;
/// Power steps over which the residual's contraction is measured.
constexpr std::size_t kContractionWindow = 8;
/// Arnoldi restarts without a new minimum of the Ritz residual before the
/// stage gives up.
constexpr std::size_t kStagnationRestarts = 8;

// SplitMix64: deterministic start-vector entropy with no dependency on the
// stats library (linalg stays a leaf module).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double dot(const Vector& a, const Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const Vector& a) { return std::sqrt(dot(a, a)); }

/// Normalizes x; returns false if it vanished.
bool normalize(Vector& x) {
  const double n = norm(x);
  if (!(n > kTiny)) return false;
  const double inv = 1.0 / n;
  for (double& e : x) e *= inv;
  return true;
}

/// Fills v with the unit start vector of `seed`.
void prepare_start(std::uint64_t seed, Vector& v) {
  std::uint64_t state = seed;
  for (double& x : v) {
    // Uniform in [-1, 1): sign diversity gives generic overlap with every
    // eigenvector; the fixed seed keeps runs bit-identical.
    x = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-52 * 2.0 - 1.0;
  }
  normalize(v);
}

/// Solves the small complex system a y = rhs in place by Gaussian
/// elimination with partial pivoting; `a` is row-major n x n and is
/// destroyed. Near-singular pivots are regularized -- exactly what inverse
/// iteration wants.
void solve_complex_inplace(std::vector<std::complex<double>>& a,
                           std::vector<std::complex<double>>& rhs,
                           std::size_t n, double scale) {
  const double floor = std::max(scale, 1.0) * 1e-14;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a[r * n + col]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c) {
        std::swap(a[col * n + c], a[pivot * n + c]);
      }
      std::swap(rhs[col], rhs[pivot]);
    }
    if (std::abs(a[col * n + col]) < floor) a[col * n + col] = floor;
    const std::complex<double> inv = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::complex<double> f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      a[r * n + col] = 0.0;
      for (std::size_t c = col + 1; c < n; ++c) {
        a[r * n + c] -= f * a[col * n + c];
      }
      rhs[r] -= f * rhs[col];
    }
  }
  for (std::size_t row = n; row-- > 0;) {
    std::complex<double> s = rhs[row];
    for (std::size_t c = row + 1; c < n; ++c) s -= a[row * n + c] * rhs[c];
    rhs[row] = s / a[row * n + row];
  }
}

struct StageResult {
  bool converged = false;
  std::complex<double> value{0.0, 0.0};
  double residual = std::numeric_limits<double>::infinity();
  IterativeMethod method = IterativeMethod::Power;
  bool pair = false;  ///< converged complex pair: report both members
};

/// Power iteration with signed Rayleigh quotient. On convergence ws.v holds
/// the unit eigenvector. Stops early, unconverged, once the residual's
/// contraction rho over the last kContractionWindow steps shows the budget
/// cannot reach the tolerance: rho >= 1, or residual * rho^(steps left)
/// still above it.
StageResult power_stage(const LinearOperator& op,
                        const IterativeEigenOptions& opts,
                        SparseEigenWorkspace& ws, std::size_t budget,
                        double& op_scale, std::size_t& applications) {
  StageResult result;
  result.method = IterativeMethod::Power;
  Vector& v = ws.v;
  Vector& w = ws.w;
  prepare_start(opts.start_seed, v);
  std::array<double, kContractionWindow> history{};
  for (std::size_t it = 0; it < budget; ++it) {
    op.apply(v, w);
    ++applications;
    const double lambda = dot(v, w);
    double res2 = 0.0;
    double w2 = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double d = w[i] - lambda * v[i];
      res2 += d * d;
      w2 += w[i] * w[i];
    }
    const double wn = std::sqrt(w2);
    op_scale = std::max(op_scale, wn);
    const double res = std::sqrt(res2);
    const double scale = std::max(std::abs(lambda), op_scale * 1e-12);
    result.value = lambda;
    result.residual = scale > 0.0 ? res / std::max(scale, kTiny) : 0.0;
    const double target = opts.tolerance * std::max(scale, kTiny);
    if (res <= target || wn <= kTiny) {
      // wn == 0 means v is (numerically) in the kernel of the operator:
      // lambda = 0 is exact.
      if (wn <= kTiny) {
        result.value = 0.0;
        result.residual = 0.0;
      }
      result.converged = true;
      return result;
    }
    double& oldest = history[it % kContractionWindow];
    if (it >= kContractionWindow) {
      const double rho = std::pow(res / oldest, 1.0 / kContractionWindow);
      const double left = static_cast<double>(budget - it - 1);
      if (!(rho < 1.0) || res * std::pow(rho, left) > target) return result;
    }
    oldest = res;
    const double inv = 1.0 / wn;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = w[i] * inv;
  }
  return result;
}

/// One explicitly restarted Arnoldi process.
/// On convergence ws.v holds the (real part of the) dominant Ritz vector;
/// for a complex pair ws.w additionally holds the imaginary part.
StageResult arnoldi_stage(const LinearOperator& op,
                          const IterativeEigenOptions& opts,
                          SparseEigenWorkspace& ws, double& op_scale,
                          std::size_t& applications) {
  StageResult result;
  result.method = IterativeMethod::Arnoldi;
  const std::size_t n = op.dim();
  const std::size_t m = std::min(opts.arnoldi_subspace, n);

  ws.basis.resize(m + 1);
  for (Vector& b : ws.basis) b.resize(n);
  ws.hess.assign(m + 1, m, 0.0);

  // Warm start from the power stage's final iterate (already unit).
  ws.restart = ws.v;

  double best_residual = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  for (std::size_t cycle = 0;; ++cycle) {
    ws.basis[0] = ws.restart;
    std::size_t mm = m;          // achieved subspace size
    bool breakdown = false;
    for (std::size_t j = 0; j < m; ++j) {
      op.apply(ws.basis[j], ws.w);
      ++applications;
      op_scale = std::max(op_scale, norm(ws.w));
      // Modified Gram-Schmidt with one reorthogonalization pass.
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k <= j; ++k) {
          const double h = dot(ws.basis[k], ws.w);
          if (pass == 0) {
            ws.hess(k, j) = h;
          } else {
            ws.hess(k, j) += h;
          }
          for (std::size_t i = 0; i < n; ++i) ws.w[i] -= h * ws.basis[k][i];
        }
      }
      const double hnext = norm(ws.w);
      ws.hess(j + 1, j) = hnext;
      if (hnext <= std::max(op_scale, 1.0) * 1e-14) {
        // Happy breakdown: the Krylov space is exactly invariant, so the
        // Ritz values of the leading block are exact eigenvalues.
        mm = j + 1;
        breakdown = true;
        break;
      }
      const double inv = 1.0 / hnext;
      for (std::size_t i = 0; i < n; ++i) ws.basis[j + 1][i] = ws.w[i] * inv;
    }

    // Dominant Ritz value of the leading mm x mm block via the dense QR
    // solver (mm <= arnoldi_subspace, so this stays O(m^3) small).
    ws.small.assign(mm, mm, 0.0);
    for (std::size_t r = 0; r < mm; ++r) {
      for (std::size_t c = 0; c < mm; ++c) ws.small(r, c) = ws.hess(r, c);
    }
    eigenvalues_into(ws.small, ws.small_ws, ws.small_eigen);
    std::complex<double> lambda = 0.0;
    for (const std::complex<double>& z : ws.small_eigen.values) {
      if (std::abs(z) > std::abs(lambda)) lambda = z;
    }

    // Dominant Ritz vector by inverse iteration on the shifted block.
    ws.cvec.assign(mm, std::complex<double>(1.0, 0.0));
    const double shift_scale = std::max(std::abs(lambda), op_scale);
    const std::complex<double> shift =
        lambda * (1.0 + 1e-10) + std::complex<double>(0.0, 1e-13 * shift_scale);
    for (int iter = 0; iter < 2; ++iter) {
      ws.cmat.assign(mm * mm, std::complex<double>(0.0, 0.0));
      for (std::size_t r = 0; r < mm; ++r) {
        for (std::size_t c = 0; c < mm; ++c) {
          ws.cmat[r * mm + c] = ws.hess(r, c);
        }
        ws.cmat[r * mm + r] -= shift;
      }
      ws.crhs = ws.cvec;
      solve_complex_inplace(ws.cmat, ws.crhs, mm, shift_scale);
      double nrm = 0.0;
      for (const auto& z : ws.crhs) nrm += std::norm(z);
      nrm = std::sqrt(nrm);
      if (!(nrm > kTiny)) break;
      for (std::size_t k = 0; k < mm; ++k) ws.cvec[k] = ws.crhs[k] / nrm;
    }

    const double sub = breakdown ? 0.0 : ws.hess(mm, mm - 1);
    const double res = std::abs(sub) * std::abs(ws.cvec[mm - 1]);
    const double scale = std::max(std::abs(lambda), op_scale * 1e-12);
    result.value = lambda;
    result.residual = scale > 0.0 ? res / std::max(scale, kTiny) : 0.0;

    // Lift the Ritz vector: v = Re(V y), w = Im(V y).
    ws.v.assign(n, 0.0);
    ws.w.assign(n, 0.0);
    for (std::size_t k = 0; k < mm; ++k) {
      const double re = ws.cvec[k].real();
      const double im = ws.cvec[k].imag();
      const Vector& bk = ws.basis[k];
      for (std::size_t i = 0; i < n; ++i) {
        ws.v[i] += re * bk[i];
        ws.w[i] += im * bk[i];
      }
    }

    if (res <= opts.tolerance * std::max(scale, kTiny)) {
      result.converged = true;
      result.pair = std::abs(lambda.imag()) >
                    1e-12 * std::max(std::abs(lambda), op_scale * 1e-12);
      return result;
    }

    // Stagnation: no new minimum of the Ritz residual over
    // kStagnationRestarts restarts ends the stage, whatever the budget.
    if (result.residual < best_residual) {
      best_residual = result.residual;
      since_best = 0;
    } else if (++since_best == kStagnationRestarts) {
      return result;
    }
    // Explicit restart with the best available direction, unless this was
    // the last cycle (tested before the increment: no wrap at SIZE_MAX).
    if (cycle == opts.arnoldi_restarts) return result;
    ws.restart = ws.v;
    if (!normalize(ws.restart)) {
      ws.restart = ws.w;
      if (!normalize(ws.restart)) {
        prepare_start(opts.start_seed + cycle + 1, ws.restart);
      }
    }
  }
}

}  // namespace

MatrixOperator::MatrixOperator(const Matrix& a) : a_(&a) {}

void MatrixOperator::apply(const Vector& x, Vector& y) const {
  const std::size_t n = a_->rows();
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += (*a_)(r, c) * x[c];
    y[r] = s;
  }
}

Matrix materialize(const LinearOperator& op) {
  const std::size_t n = op.dim();
  Matrix a(n, n);
  Vector e(n, 0.0);
  Vector column(n);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    op.apply(e, column);
    e[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) a(i, j) = column[i];
  }
  return a;
}

void iterative_eigenvalues_into(const LinearOperator& op, std::size_t count,
                                const IterativeEigenOptions& opts,
                                SparseEigenWorkspace& ws,
                                IterativeEigenResult& out) {
  if (opts.arnoldi_subspace == 0) {
    throw std::invalid_argument(
        "iterative_eigenvalues: arnoldi_subspace must be >= 1");
  }
  if (count > 1) {
    throw std::invalid_argument(
        "iterative_eigenvalues: count must be 0 or 1 (the solver computes "
        "the dominant eigenvalue only)");
  }
  const std::size_t n = op.dim();
  out.eigenvalues.clear();
  out.spectral_radius = 0.0;
  out.converged = true;
  out.residual = 0.0;
  out.applications = 0;
  out.method = IterativeMethod::Power;
  if (n == 0 || count == 0) return;

  ws.v.resize(n);
  ws.w.resize(n);
  double op_scale = 0.0;
  const std::size_t power_budget =
      opts.real_spectrum
          ? opts.power_iterations
          : std::min<std::size_t>(opts.power_iterations, 300);
  StageResult stage =
      power_stage(op, opts, ws, power_budget, op_scale, out.applications);
  if (!stage.converged) {
    stage = arnoldi_stage(op, opts, ws, op_scale, out.applications);
  }
  // An unconverged stage still reports its best estimate.
  out.converged = stage.converged;
  out.residual = stage.residual;
  out.method = stage.method;
  out.eigenvalues.push_back(stage.value);
  out.spectral_radius = std::abs(stage.value);
  if (stage.pair) out.eigenvalues.push_back(std::conj(stage.value));
}

IterativeEigenResult iterative_eigenvalues(const LinearOperator& op,
                                           std::size_t count,
                                           const IterativeEigenOptions& opts) {
  SparseEigenWorkspace ws;
  IterativeEigenResult out;
  iterative_eigenvalues_into(op, count, opts, ws, out);
  return out;
}

}  // namespace ffc::linalg
