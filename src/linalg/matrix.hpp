// Dense real matrices and vectors.
//
// The stability analysis of the paper (§3.3) requires eigenvalues of the
// Jacobian DF of the flow-control map. Matrix is the storage the dense path
// works on: linalg::materialize fills it column by column from a Jacobian
// operator, and eigen.hpp's Hessenberg + QR reduce it in place. The
// iterative path never forms a matrix at all.
#pragma once

#include <cstddef>
#include <initializer_list>
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

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ffc::linalg
