// quest/common/matrix.hpp
//
// Dense row-major matrix. The quest problem model stores inter-service
// transfer costs t_{i,j} in a Matrix<double>; the class is generic because
// the constraints module reuses it for boolean reachability.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "quest/common/error.hpp"

namespace quest {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, every element initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// rows x cols matrix over `data`, row-major; takes ownership.
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    QUEST_EXPECTS(data_.size() == rows * cols,
                  "matrix data must hold rows * cols elements");
  }

  /// Square convenience factory.
  static Matrix square(std::size_t n, T fill = T{}) {
    return Matrix(n, n, fill);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    QUEST_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    QUEST_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops that have already validated indices.
  T& at_unchecked(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  const T& at_unchecked(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  const std::vector<T>& data() const noexcept { return data_; }

  /// Fill every element.
  void fill(T value) {
    for (auto& x : data_) x = value;
  }

  /// Maximum element of row r over columns for which `pred(col)` holds.
  /// Returns `fallback` when no column qualifies.
  template <typename Pred>
  T row_max_if(std::size_t r, Pred pred, T fallback) const {
    QUEST_EXPECTS(r < rows_, "matrix row out of range");
    T best = fallback;
    bool any = false;
    for (std::size_t c = 0; c < cols_; ++c) {
      if (!pred(c)) continue;
      const T& v = data_[r * cols_ + c];
      if (!any || best < v) {
        best = v;
        any = true;
      }
    }
    return any ? best : fallback;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace quest
