// Dense real matrices and vectors.
//
// The stability analysis of the paper (§3.3) requires eigenvalues of the
// Jacobian DF of the flow-control map; this small dense linear-algebra layer
// supports that with no external dependencies. Sizes here are tiny (one row
// per connection), so clarity wins over blocking/vectorization tricks.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace ffc::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Reshapes to rows x cols, every entry `fill`: Matrix(rows, cols, fill)
  /// that reuses the storage when it is large enough.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool is_square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws std::out_of_range).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product; dimensions must agree.
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product; v.size() must equal cols().
  Vector apply(const Vector& v) const;

  Matrix transposed() const;

  /// Max-norm distance between two matrices of equal shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  /// True if |a(i,j) - b(i,j)| <= tol everywhere (shapes must match).
  static bool approx_equal(const Matrix& a, const Matrix& b, double tol);

  /// True if every entry strictly below the diagonal has magnitude <= tol.
  bool is_upper_triangular(double tol = 0.0) const;

  /// True if every entry strictly above the diagonal has magnitude <= tol.
  bool is_lower_triangular(double tol = 0.0) const;

  /// Frobenius norm.
  double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// Euclidean norm of a vector.
double norm2(const Vector& v);

/// Max-norm of a vector.
double norm_inf(const Vector& v);

/// Dot product; sizes must agree.
double dot(const Vector& a, const Vector& b);

}  // namespace ffc::linalg
