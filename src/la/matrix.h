#ifndef SEMTAG_LA_MATRIX_H_
#define SEMTAG_LA_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/logging.h"

namespace semtag::la {

/// Dense row-major float matrix. This is the numeric workhorse behind the
/// neural-network substrate; it is deliberately small and cache-friendly
/// rather than general (2-D only, float32 only).
///
/// Storage is drawn from la::BufferPool (32-byte aligned, size-bucketed
/// free lists), so steady-state construction/destruction in a training
/// loop recycles buffers instead of hitting the system allocator. All
/// elementwise ops, reductions, and the GEMM inner loops route through the
/// dispatched SIMD kernel table (la/kernels.h).
///
/// A 1-D vector is represented as a 1xN or Nx1 matrix; the autograd layer
/// treats shape explicitly so no implicit broadcasting happens here except
/// in the *RowBroadcast helpers.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0), size_(0), cap_(0), data_(nullptr) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;
  ~Matrix();

  /// Builds from nested initializer data (test convenience).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// Allocates without the zero fill. Only for outputs every element of
  /// which is about to be written (e.g. dot-product GEMMs): reading before
  /// writing sees pool garbage.
  static Matrix Uninitialized(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  /// Bounds-checked access. Policy: boundary code (reading a logit or a
  /// loss out of a model, test assertions) uses At; hot loops use the
  /// unchecked operator() or raw Row() pointers.
  float& At(size_t r, size_t c) {
    SEMTAG_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    SEMTAG_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  /// Unchecked access for hot loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* Row(size_t r) { return data_ + r * cols_; }
  const float* Row(size_t r) const { return data_ + r * cols_; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Elementwise in-place operations.
  void Add(const Matrix& other);
  void Sub(const Matrix& other);
  void Mul(const Matrix& other);  // Hadamard
  void Scale(float s);
  /// this += s * other (axpy).
  void Axpy(float s, const Matrix& other);

  /// Reductions.
  float Sum() const;
  float Min() const;
  float Max() const;
  /// Frobenius norm.
  float Norm() const;

  /// Returns the transpose.
  Matrix Transposed() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Debug rendering, e.g. "[[1, 2], [3, 4]]".
  std::string ToString() const;

 private:
  /// Pool-allocates for rows x cols; contents uninitialized.
  void AllocateUninitialized(size_t rows, size_t cols);
  void ReleaseStorage();

  size_t rows_;
  size_t cols_;
  size_t size_;
  size_t cap_;  ///< pool bucket capacity in floats (>= size_)
  float* data_;
};

/// out = a * b. Shapes must agree ([m,k]x[k,n] -> [m,n]); `out` is resized.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b.
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T.
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// Adds the 1xC row vector `row` to every row of `m` in place.
void AddRowBroadcast(Matrix* m, const Matrix& row);

/// Sums the rows of `m` into a 1xC row vector.
Matrix SumRows(const Matrix& m);

/// Dot product of two equal-length float spans.
float Dot(const float* a, const float* b, size_t n);

}  // namespace semtag::la

#endif  // SEMTAG_LA_MATRIX_H_
