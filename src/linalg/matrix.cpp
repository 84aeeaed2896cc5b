#include "linalg/matrix.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

namespace ffc::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

namespace {

void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix: shape mismatch in ") + op);
  }
}

}  // namespace

Matrix& Matrix::operator+=(const Matrix& other) {
  check_same_shape(*this, other, "+");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  check_same_shape(*this, other, "-");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("Matrix: inner dimensions must agree");
  }
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::apply(const Vector& v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::apply: size mismatch");
  }
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * v[j];
    out[i] = sum;
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  check_same_shape(a, b, "max_abs_diff");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

bool Matrix::approx_equal(const Matrix& a, const Matrix& b, double tol) {
  return max_abs_diff(a, b) <= tol;
}

bool Matrix::is_upper_triangular(double tol) const {
  for (std::size_t i = 1; i < rows_; ++i) {
    for (std::size_t j = 0; j < std::min(i, cols_); ++j) {
      if (std::fabs((*this)(i, j)) > tol) return false;
    }
  }
  return true;
}

bool Matrix::is_lower_triangular(double tol) const {
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j)) > tol) return false;
    }
  }
  return true;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return std::sqrt(sum);
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[[" : " [");
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ", ";
      os << m(i, j);
    }
    os << (i + 1 == m.rows() ? "]]" : "]") << '\n';
  }
  return os;
}

double norm2(const Vector& v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return std::sqrt(sum);
}

double norm_inf(const Vector& v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, std::fabs(x));
  return worst;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace ffc::linalg
