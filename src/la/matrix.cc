#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "la/buffer_pool.h"
#include "la/kernels.h"
#include "obs/metrics.h"

namespace semtag::la {

namespace {

/// Below this many multiply-adds (m*n*k) a GEMM runs on the calling thread
/// only; pool dispatch costs more than it saves on tiny shapes.
constexpr size_t kParallelMinWork = size_t{64} * 64 * 64;

/// Rows of the k-panel kept hot across an output-row sweep. 32 rows x
/// kBlockN cols of B is 32KB at kBlockN=256 — one L1's worth, so the
/// panel stays resident while the two-row micro-kernel sweeps it.
/// Retuned for the AVX2 kernels (the scalar-era 64 left the panel
/// L2-resident and cost ~15% at 256^3).
constexpr size_t kBlockK = 32;

/// Output-row segment width per inner sweep; one out row segment plus four
/// B row segments stay in L1.
constexpr size_t kBlockN = 256;

/// Square tile edge for the transpose (two 32x32 float tiles = 8KB).
constexpr size_t kTransposeTile = 32;

/// True when an [m x n x k] product is worth fanning out to the pool.
bool WorthParallel(size_t m, size_t n, size_t k) {
  return m * n * k >= kParallelMinWork;
}

/// GEMM accounting: call and FLOP-estimate counters, named per dispatched
/// SIMD tier (e.g. la/gemm/calls_avx2) so a snapshot shows which kernel
/// table did the work. One relaxed-load branch when the registry is off.
void NoteGemm(size_t m, size_t n, size_t k) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& calls = obs::GetCounter(
      std::string("la/gemm/calls_") + SimdLevelName(ActiveSimdLevel()));
  static obs::Counter& flops = obs::GetCounter("la/gemm/flops");
  calls.Add(1);
  flops.Add(static_cast<uint64_t>(2) * m * n * k);
}

}  // namespace

void Matrix::AllocateUninitialized(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  size_ = rows * cols;
  cap_ = BufferPool::BucketFloats(size_);
  data_ = BufferPool::Acquire(size_);
}

void Matrix::ReleaseStorage() {
  BufferPool::Release(data_, cap_);
  data_ = nullptr;
  cap_ = 0;
}

Matrix::Matrix(size_t rows, size_t cols, float fill) {
  AllocateUninitialized(rows, cols);
  if (size_ != 0) Kernels().vfill(data_, fill, size_);
}

Matrix::Matrix(const Matrix& other) {
  AllocateUninitialized(other.rows_, other.cols_);
  if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  const size_t need = BufferPool::BucketFloats(other.size_);
  if (need != cap_) {
    ReleaseStorage();
    cap_ = need;
    data_ = BufferPool::Acquire(other.size_);
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  size_ = other.size_;
  if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(float));
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      size_(other.size_),
      cap_(other.cap_),
      data_(other.data_) {
  other.rows_ = other.cols_ = other.size_ = other.cap_ = 0;
  other.data_ = nullptr;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  ReleaseStorage();
  rows_ = other.rows_;
  cols_ = other.cols_;
  size_ = other.size_;
  cap_ = other.cap_;
  data_ = other.data_;
  other.rows_ = other.cols_ = other.size_ = other.cap_ = 0;
  other.data_ = nullptr;
  return *this;
}

Matrix::~Matrix() { ReleaseStorage(); }

Matrix Matrix::Uninitialized(size_t rows, size_t cols) {
  Matrix m;
  m.AllocateUninitialized(rows, cols);
  return m;
}

void Matrix::Fill(float value) { Kernels().vfill(data_, value, size_); }

void Matrix::Add(const Matrix& other) {
  SEMTAG_CHECK(SameShape(other));
  Kernels().vadd(data_, other.data_, size_);
}

void Matrix::Sub(const Matrix& other) {
  SEMTAG_CHECK(SameShape(other));
  Kernels().vsub(data_, other.data_, size_);
}

void Matrix::Mul(const Matrix& other) {
  SEMTAG_CHECK(SameShape(other));
  Kernels().hadamard(data_, other.data_, size_);
}

void Matrix::Scale(float s) { Kernels().scale(data_, s, size_); }

void Matrix::Axpy(float s, const Matrix& other) {
  SEMTAG_CHECK(SameShape(other));
  Kernels().axpy(data_, other.data_, s, size_);
}

float Matrix::Sum() const {
  return static_cast<float>(Kernels().sum(data_, size_));
}

float Matrix::Norm() const {
  return static_cast<float>(std::sqrt(Kernels().sumsq(data_, size_)));
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  // Tiled to keep both the read rows and the written columns cache-
  // resident; the naive double loop strides the destination by rows_ on
  // every element and thrashes once the matrix outgrows L1.
  for (size_t r0 = 0; r0 < rows_; r0 += kTransposeTile) {
    const size_t r1 = std::min(r0 + kTransposeTile, rows_);
    for (size_t c0 = 0; c0 < cols_; c0 += kTransposeTile) {
      const size_t c1 = std::min(c0 + kTransposeTile, cols_);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) t(c, r) = (*this)(r, c);
      }
    }
  }
  return t;
}

namespace {

// All three GEMM kernels compute output rows [i0, i1) and the parallel
// split is always by output row, so each element is produced by exactly
// one fn call with a thread-count-independent operation order — parallel
// results are bit-identical to sequential ones. Each pool thread gets one
// block of rows (PerThreadGrain), even-sized where the two-row
// micro-kernel runs, so every row pair shares its B-panel loads. The
// inner loops are the dispatched SIMD kernels (la/kernels.h); with
// SEMTAG_SIMD=scalar they are the seed loops verbatim.

/// Core of MatMul: out rows [i0, i1) of a[m,k] * b[k,n]. Blocked over
/// (j, k) so the B panel is reused across the whole row range, with the
/// k-loop unrolled 4-wide: one load+store of the out segment amortizes
/// four B rows, cutting store traffic 4x versus the rank-1 ikj update.
void MatMulRows(const Matrix& a, const Matrix& b, Matrix* out, size_t i0,
                size_t i1) {
  const KernelTable& kr = Kernels();
  const size_t k = a.cols(), n = b.cols();
  for (size_t jj = 0; jj < n; jj += kBlockN) {
    const size_t jend = std::min(jj + kBlockN, n);
    const size_t jlen = jend - jj;
    for (size_t kk0 = 0; kk0 < k; kk0 += kBlockK) {
      const size_t kend = std::min(kk0 + kBlockK, k);
      // Output rows go in pairs through the two-row micro-kernel so each
      // loaded B segment feeds both rows (halves B-panel traffic); each
      // row's element-level accumulation order is unchanged.
      size_t i = i0;
      for (; i + 2 <= i1; i += 2) {
        const float* arow0 = a.Row(i);
        const float* arow1 = a.Row(i + 1);
        float* orow0 = out->Row(i);
        float* orow1 = out->Row(i + 1);
        size_t kk = kk0;
        for (; kk + 4 <= kend; kk += 4) {
          const float a0[4] = {arow0[kk], arow0[kk + 1], arow0[kk + 2],
                               arow0[kk + 3]};
          const float a1[4] = {arow1[kk], arow1[kk + 1], arow1[kk + 2],
                               arow1[kk + 3]};
          kr.gemm_update4x2(orow0 + jj, orow1 + jj, b.Row(kk) + jj,
                            b.Row(kk + 1) + jj, b.Row(kk + 2) + jj,
                            b.Row(kk + 3) + jj, a0, a1, jlen);
        }
        for (; kk < kend; ++kk) {
          kr.axpy(orow0 + jj, b.Row(kk) + jj, arow0[kk], jlen);
          kr.axpy(orow1 + jj, b.Row(kk) + jj, arow1[kk], jlen);
        }
      }
      for (; i < i1; ++i) {
        const float* arow = a.Row(i);
        float* orow = out->Row(i);
        size_t kk = kk0;
        for (; kk + 4 <= kend; kk += 4) {
          kr.gemm_update4(orow + jj, b.Row(kk) + jj, b.Row(kk + 1) + jj,
                          b.Row(kk + 2) + jj, b.Row(kk + 3) + jj, arow[kk],
                          arow[kk + 1], arow[kk + 2], arow[kk + 3], jlen);
        }
        for (; kk < kend; ++kk) {
          kr.axpy(orow + jj, b.Row(kk) + jj, arow[kk], jlen);
        }
      }
    }
  }
}

/// Core of MatMulTransA: out rows [i0, i1) of a^T[m,k] * b[k,n] with a
/// stored [k, m]. Same shape as MatMulRows except the four A values per
/// step are gathered down a column of `a` (stride m); each gathered value
/// is reused across the whole jend-jj segment, so the strided loads are
/// amortized n-fold.
void MatMulTransARows(const Matrix& a, const Matrix& b, Matrix* out,
                      size_t i0, size_t i1) {
  const KernelTable& kr = Kernels();
  const size_t k = a.rows(), n = b.cols();
  for (size_t jj = 0; jj < n; jj += kBlockN) {
    const size_t jend = std::min(jj + kBlockN, n);
    const size_t jlen = jend - jj;
    for (size_t kk0 = 0; kk0 < k; kk0 += kBlockK) {
      const size_t kend = std::min(kk0 + kBlockK, k);
      size_t i = i0;
      for (; i + 2 <= i1; i += 2) {
        float* orow0 = out->Row(i);
        float* orow1 = out->Row(i + 1);
        size_t kk = kk0;
        for (; kk + 4 <= kend; kk += 4) {
          const float a0[4] = {a(kk, i), a(kk + 1, i), a(kk + 2, i),
                               a(kk + 3, i)};
          const float a1[4] = {a(kk, i + 1), a(kk + 1, i + 1),
                               a(kk + 2, i + 1), a(kk + 3, i + 1)};
          kr.gemm_update4x2(orow0 + jj, orow1 + jj, b.Row(kk) + jj,
                            b.Row(kk + 1) + jj, b.Row(kk + 2) + jj,
                            b.Row(kk + 3) + jj, a0, a1, jlen);
        }
        for (; kk < kend; ++kk) {
          kr.axpy(orow0 + jj, b.Row(kk) + jj, a(kk, i), jlen);
          kr.axpy(orow1 + jj, b.Row(kk) + jj, a(kk, i + 1), jlen);
        }
      }
      for (; i < i1; ++i) {
        float* orow = out->Row(i);
        size_t kk = kk0;
        for (; kk + 4 <= kend; kk += 4) {
          kr.gemm_update4(orow + jj, b.Row(kk) + jj, b.Row(kk + 1) + jj,
                          b.Row(kk + 2) + jj, b.Row(kk + 3) + jj, a(kk, i),
                          a(kk + 1, i), a(kk + 2, i), a(kk + 3, i), jlen);
        }
        for (; kk < kend; ++kk) {
          kr.axpy(orow + jj, b.Row(kk) + jj, a(kk, i), jlen);
        }
      }
    }
  }
}

/// Core of MatMulTransB: out rows [i0, i1) of a[m,k] * b^T with b stored
/// [n, k]. Row-by-row dot products, four output columns at a time so each
/// loaded A element feeds four independent accumulators (B rows j..j+3).
void MatMulTransBRows(const Matrix& a, const Matrix& b, Matrix* out,
                      size_t i0, size_t i1) {
  const KernelTable& kr = Kernels();
  const size_t k = a.cols(), n = b.rows();
  for (size_t i = i0; i < i1; ++i) {
    const float* arow = a.Row(i);
    float* orow = out->Row(i);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      kr.dot4(arow, b.Row(j), b.Row(j + 1), b.Row(j + 2), b.Row(j + 3), k,
              orow + j);
    }
    for (; j < n; ++j) orow[j] = kr.dot(arow, b.Row(j), k);
  }
}

}  // namespace

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  SEMTAG_CHECK(a.cols() == b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  NoteGemm(m, n, k);
  *out = Matrix(m, n);
  if (WorthParallel(m, n, k)) {
    ParallelFor(0, m, PerThreadGrain(m, 2), [&](size_t lo, size_t hi) {
      MatMulRows(a, b, out, lo, hi);
    });
  } else {
    MatMulRows(a, b, out, 0, m);
  }
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  SEMTAG_CHECK(a.rows() == b.rows());
  const size_t m = a.cols(), k = a.rows(), n = b.cols();
  NoteGemm(m, n, k);
  *out = Matrix(m, n);
  if (WorthParallel(m, n, k)) {
    ParallelFor(0, m, PerThreadGrain(m, 2), [&](size_t lo, size_t hi) {
      MatMulTransARows(a, b, out, lo, hi);
    });
  } else {
    MatMulTransARows(a, b, out, 0, m);
  }
}

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  SEMTAG_CHECK(a.cols() == b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  NoteGemm(m, n, k);
  // Every element is written by a dot product (no accumulation), so the
  // output skips the zero fill — one full write pass saved.
  *out = Matrix::Uninitialized(m, n);
  if (WorthParallel(m, n, k)) {
    ParallelFor(0, m, PerThreadGrain(m, 1), [&](size_t lo, size_t hi) {
      MatMulTransBRows(a, b, out, lo, hi);
    });
  } else {
    MatMulTransBRows(a, b, out, 0, m);
  }
}

void AddRowBroadcast(Matrix* m, const Matrix& row) {
  SEMTAG_CHECK(row.rows() == 1 && row.cols() == m->cols());
  const KernelTable& kr = Kernels();
  for (size_t r = 0; r < m->rows(); ++r) {
    kr.vadd(m->Row(r), row.Row(0), m->cols());
  }
}

Matrix SumRows(const Matrix& m) {
  Matrix out(1, m.cols());
  const KernelTable& kr = Kernels();
  for (size_t r = 0; r < m.rows(); ++r) {
    kr.vadd(out.Row(0), m.Row(r), m.cols());
  }
  return out;
}

float Dot(const float* a, const float* b, size_t n) {
  return Kernels().dot(a, b, n);
}

}  // namespace semtag::la
