#ifndef SEMTAG_LA_SPARSE_H_
#define SEMTAG_LA_SPARSE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semtag::la {

/// One nonzero entry of a sparse vector.
struct SparseEntry {
  uint32_t index;
  float value;
};

/// Sparse feature vector with entries sorted by index. This is the feature
/// representation used by the simple models (BoW + TF-IDF features are
/// extremely sparse: a sentence touches tens of indices out of 10^4-10^5).
class SparseVector {
 public:
  SparseVector() = default;

  /// Appends an entry; indices must be added in strictly increasing order
  /// (use SortAndMerge afterwards when order is unknown).
  void Push(uint32_t index, float value) {
    entries_.push_back({index, value});
  }

  /// Sorts entries by index and merges duplicates by summing values.
  void SortAndMerge();

  const std::vector<SparseEntry>& entries() const { return entries_; }
  size_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(size_t n) { entries_.reserve(n); }

  /// L2 norm of the vector.
  float Norm() const;

  /// Scales all values in place.
  void Scale(float s);

  /// Normalizes to unit L2 norm (no-op for zero vectors).
  void L2Normalize();

  /// Dot with a dense weight array of length >= max index + 1.
  float Dot(const float* dense) const;

  /// dense[index] += s * value for every entry.
  void AxpyInto(float s, float* dense) const;

 private:
  std::vector<SparseEntry> entries_;
};

/// A set of sparse rows (CSR-like, but row-of-vectors for simplicity: rows
/// are built independently during featurization).
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(size_t num_cols) : num_cols_(num_cols) {}

  void AddRow(SparseVector row) { rows_.push_back(std::move(row)); }

  size_t rows() const { return rows_.size(); }
  size_t cols() const { return num_cols_; }
  void set_cols(size_t c) { num_cols_ = c; }

  const SparseVector& Row(size_t r) const { return rows_[r]; }
  SparseVector& MutableRow(size_t r) { return rows_[r]; }

 private:
  size_t num_cols_ = 0;
  std::vector<SparseVector> rows_;
};

}  // namespace semtag::la

#endif  // SEMTAG_LA_SPARSE_H_
