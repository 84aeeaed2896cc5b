#include "linalg/eigen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ffc::linalg {

namespace {

/// Householder reduction of the square `a` to upper Hessenberg form, in
/// place; `v` is the reflection vector's buffer.
void reduce_to_hessenberg(Matrix& a, std::vector<double>& v) {
  const std::size_t n = a.rows();
  if (n < 3) return;
  v.resize(n);

  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder vector annihilating a(k+2..n-1, k).
    double alpha = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) alpha += a(i, k) * a(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) continue;
    if (a(k + 1, k) > 0.0) alpha = -alpha;

    // Entries k + 1 .. n - 1 are this reflection's; no loop reads below.
    v[k + 1] = a(k + 1, k) - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = a(i, k);
    double vnorm2 = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 == 0.0) continue;

    // A := (I - 2vv^T/v^Tv) A
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k + 1; i < n; ++i) s += v[i] * a(i, j);
      s *= 2.0 / vnorm2;
      for (std::size_t i = k + 1; i < n; ++i) a(i, j) -= s * v[i];
    }
    // A := A (I - 2vv^T/v^Tv)
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) s += a(i, j) * v[j];
      s *= 2.0 / vnorm2;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= s * v[j];
    }
    // Zero out the annihilated entries explicitly (they are roundoff now).
    a(k + 1, k) = alpha;
    for (std::size_t i = k + 2; i < n; ++i) a(i, k) = 0.0;
  }
}

}  // namespace

Matrix hessenberg(Matrix a) {
  if (!a.is_square()) {
    throw std::invalid_argument("hessenberg: matrix must be square");
  }
  std::vector<double> v;
  reduce_to_hessenberg(a, v);
  return a;
}

namespace {

using cd = std::complex<double>;

/// Both eigenvalues of the 2x2 complex matrix [[a,b],[c,d]], the one closer
/// to d second. The discriminant is sqrt(((a-d)/2)^2 + bc): the textbook
/// tr^2/4 - det cancels to ~1e-8 absolute on a near-defective pair.
std::array<cd, 2> eigenvalues_2x2(cd a, cd b, cd c, cd d) {
  const cd half_gap = (a - d) / 2.0;
  const cd disc = std::sqrt(half_gap * half_gap + b * c);
  const cd mid = (a + d) / 2.0;
  const cd l1 = mid + disc;
  const cd l2 = mid - disc;
  if (std::abs(l1 - d) < std::abs(l2 - d)) return {l2, l1};
  return {l1, l2};
}

/// One shifted-QR sweep on the active Hessenberg block rows/cols [l, m] of h
/// (a dense complex matrix stored row-major in a flat vector of dimension n).
void qr_sweep(std::vector<cd>& h, std::size_t n, std::size_t l, std::size_t m,
              cd shift, std::vector<std::array<cd, 4>>& rot) {
  // h(i,j) == h[i*n + j]
  auto H = [&](std::size_t i, std::size_t j) -> cd& { return h[i * n + j]; };

  for (std::size_t i = l; i <= m; ++i) H(i, i) -= shift;

  // Left Givens rotations zeroing the subdiagonal of the shifted block.
  // g[k] = {g00, g01, g10, g11} applied to rows k, k+1.
  rot.resize(m);  // indices l..m-1 used, each written before it is read
  for (std::size_t k = l; k < m; ++k) {
    const cd a = H(k, k);
    const cd b = H(k + 1, k);
    std::array<cd, 4> g;
    const double denom = std::hypot(std::abs(a), std::abs(b));
    if (denom == 0.0) {
      g = {cd(1), cd(0), cd(0), cd(1)};
    } else {
      g = {std::conj(a) / denom, std::conj(b) / denom, -b / denom, a / denom};
    }
    for (std::size_t j = k; j <= m; ++j) {
      const cd top = H(k, j);
      const cd bot = H(k + 1, j);
      H(k, j) = g[0] * top + g[1] * bot;
      H(k + 1, j) = g[2] * top + g[3] * bot;
    }
    rot[k] = g;
  }

  // Right multiplication by the conjugate transposes: H := R Q + shift I.
  for (std::size_t k = l; k < m; ++k) {
    const auto& g = rot[k];
    const std::size_t last_row = std::min(k + 2, m);
    for (std::size_t i = l; i <= last_row; ++i) {
      const cd left = H(i, k);
      const cd right = H(i, k + 1);
      H(i, k) = left * std::conj(g[0]) + right * std::conj(g[1]);
      H(i, k + 1) = left * std::conj(g[2]) + right * std::conj(g[3]);
    }
  }

  for (std::size_t i = l; i <= m; ++i) H(i, i) += shift;
}

}  // namespace

void eigenvalues_into(const Matrix& a, EigenWorkspace& ws,
                      EigenResult& result) {
  if (!a.is_square()) {
    throw std::invalid_argument("eigenvalues: matrix must be square");
  }
  const std::size_t n = a.rows();
  result.values.clear();
  result.converged = true;
  if (n == 0) return;

  ws.hess = a;
  reduce_to_hessenberg(ws.hess, ws.householder);
  const Matrix& hess = ws.hess;
  std::vector<cd>& h = ws.h;
  h.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) h[i * n + j] = cd(hess(i, j));
  }
  auto H = [&](std::size_t i, std::size_t j) -> cd& { return h[i * n + j]; };

  const double eps = std::numeric_limits<double>::epsilon();
  double scale = 0.0;
  for (const cd& x : h) scale = std::max(scale, std::abs(x));
  if (scale == 0.0) scale = 1.0;

  std::size_t m = n - 1;  // last index of the active block
  std::size_t iters_since_deflation = 0;
  const std::size_t max_iters_per_eigenvalue = 60;

  while (true) {
    // Locate l: start of the active unreduced block ending at m. A
    // subdiagonal deflates when it is roundoff next to its neighbouring
    // diagonal entries. A cluster of equal eigenvalues can leave every
    // subdiagonal at the eps * max|H| roundoff level without ever meeting
    // that relative test, so after max_iters_per_eigenvalue sweeps on one
    // block the absolute test eps * max|H| is accepted too.
    const bool stalled = iters_since_deflation > max_iters_per_eigenvalue;
    std::size_t l = m;
    while (l > 0) {
      const double sub = std::abs(H(l, l - 1));
      const double neighbor = std::abs(H(l - 1, l - 1)) + std::abs(H(l, l));
      if (sub <= eps * (neighbor > 0.0 ? neighbor : scale) ||
          (stalled && sub <= eps * scale)) {
        H(l, l - 1) = cd(0);
        break;
      }
      --l;
    }

    if (l == m) {
      // 1x1 block deflated.
      result.values.push_back(H(m, m));
      iters_since_deflation = 0;
      if (m == 0) break;
      --m;
      continue;
    }

    if (l + 1 == m) {
      // 2x2 block: both eigenvalues in closed form.
      for (const cd lambda : eigenvalues_2x2(H(l, l), H(l, m), H(m, l),
                                             H(m, m))) {
        result.values.push_back(lambda);
      }
      iters_since_deflation = 0;
      if (l == 0) break;
      m -= 2;
      continue;
    }

    if (++iters_since_deflation > 2 * max_iters_per_eigenvalue) {
      // Give up: only the eigenvalues deflated so far are reported.
      result.converged = false;
      break;
    }

    // Wilkinson shift: the trailing 2x2 block's eigenvalue closer to H(m, m).
    cd shift = eigenvalues_2x2(H(m - 1, m - 1), H(m - 1, m), H(m, m - 1),
                               H(m, m))[1];
    if (iters_since_deflation % 12 == 0) {
      // Exceptional shift to break potential limit cycles.
      shift = H(m, m) + cd(1.2 * std::abs(H(m, m - 1)), 0.7 * scale * eps);
    }
    qr_sweep(h, n, l, m, shift, ws.rotations);
  }

  std::sort(result.values.begin(), result.values.end(),
            [](const cd& x, const cd& y) { return std::abs(x) > std::abs(y); });
}

EigenResult eigenvalues(const Matrix& a) {
  EigenWorkspace ws;
  EigenResult result;
  eigenvalues_into(a, ws, result);
  return result;
}

double spectral_radius(const Matrix& a) {
  const EigenResult res = eigenvalues(a);
  if (!res.converged) {
    throw std::runtime_error("spectral_radius: QR iteration did not converge");
  }
  double radius = 0.0;
  for (const auto& v : res.values) radius = std::max(radius, std::abs(v));
  return radius;
}

}  // namespace ffc::linalg
