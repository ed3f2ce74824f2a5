// SpeedLLM -- dense row-major tensors.
//
// Tensor<T> owns 64-byte-aligned storage (cache-line / AVX-512 friendly)
// and exposes span views; TensorView<T> is a non-owning shaped view used
// throughout the kernels. Shapes are small fixed vectors (rank <= 4 covers
// everything a llama2 forward pass needs).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace speedllm {

/// Shape of a dense tensor; rank 0 means scalar. Stored inline.
class Shape {
 public:
  static constexpr int kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    assert(dims.size() <= kMaxRank);
    rank_ = static_cast<int>(dims.size());
    int i = 0;
    for (std::int64_t d : dims) dims_[i++] = d;
  }

  int rank() const { return rank_; }
  std::int64_t dim(int i) const {
    assert(i >= 0 && i < rank_);
    return dims_[i];
  }
  std::int64_t operator[](int i) const { return dim(i); }

  /// Total element count (1 for scalars).
  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (int i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  bool operator==(const Shape& o) const {
    if (rank_ != o.rank_) return false;
    for (int i = 0; i < rank_; ++i)
      if (dims_[i] != o.dims_[i]) return false;
    return true;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  /// "[288, 32000]"
  std::string ToString() const;

 private:
  int rank_ = 0;
  std::array<std::int64_t, kMaxRank> dims_{};
};

namespace detail {

/// 64-byte aligned allocation with RAII ownership.
template <typename T>
struct AlignedDeleter {
  void operator()(T* p) const { std::free(p); }
};

template <typename T>
std::unique_ptr<T[], AlignedDeleter<T>> AllocateAligned(std::size_t n) {
  if (n == 0) n = 1;  // keep a valid non-null pointer for empty tensors
  std::size_t bytes = (n * sizeof(T) + 63) / 64 * 64;
  void* p = std::aligned_alloc(64, bytes);
  assert(p != nullptr);
  return std::unique_ptr<T[], AlignedDeleter<T>>(static_cast<T*>(p));
}

}  // namespace detail

/// Owning dense tensor. Movable, explicitly copyable via Clone() --
/// accidental deep copies of multi-MB weight tensors are a bug.
template <typename T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(shape),
        data_(detail::AllocateAligned<T>(
            static_cast<std::size_t>(shape.num_elements()))) {}

  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  Tensor(const Tensor&) = delete;
  Tensor& operator=(const Tensor&) = delete;

  static Tensor Zeros(Shape shape) {
    Tensor t(shape);
    std::memset(t.data(), 0, sizeof(T) * t.size());
    return t;
  }

  static Tensor Full(Shape shape, T value) {
    Tensor t(shape);
    std::fill_n(t.data(), t.size(), value);
    return t;
  }

  Tensor Clone() const {
    Tensor t(shape_);
    std::memcpy(t.data(), data(), sizeof(T) * size());
    return t;
  }

  const Shape& shape() const { return shape_; }
  /// Element count; 0 for a default-constructed (or moved-from) tensor,
  /// which owns no storage even though its rank-0 shape counts one.
  std::size_t size() const {
    return data_ ? static_cast<std::size_t>(shape_.num_elements()) : 0;
  }
  std::size_t size_bytes() const { return size() * sizeof(T); }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }

  std::span<T> span() { return {data(), size()}; }
  std::span<const T> span() const { return {data(), size()}; }

  T& operator[](std::size_t i) {
    assert(i < size());
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size());
    return data()[i];
  }

  /// 2-D access (rank must be 2).
  T& at(std::int64_t r, std::int64_t c) {
    assert(shape_.rank() == 2);
    assert(r >= 0 && r < shape_.dim(0) && c >= 0 && c < shape_.dim(1));
    return data()[r * shape_.dim(1) + c];
  }
  const T& at(std::int64_t r, std::int64_t c) const {
    return const_cast<Tensor*>(this)->at(r, c);
  }

  /// Row view of a rank-2 tensor.
  std::span<T> row(std::int64_t r) {
    assert(shape_.rank() == 2);
    return {data() + r * shape_.dim(1), static_cast<std::size_t>(shape_.dim(1))};
  }
  std::span<const T> row(std::int64_t r) const {
    assert(shape_.rank() == 2);
    return {data() + r * shape_.dim(1), static_cast<std::size_t>(shape_.dim(1))};
  }

 private:
  Shape shape_;
  std::unique_ptr<T[], detail::AlignedDeleter<T>> data_;
};

using TensorF = Tensor<float>;

/// Elementwise max|a-b|; tensors must be same shape.
float MaxAbsDiff(std::span<const float> a, std::span<const float> b);

/// Relative L2 error ||a-b|| / (||b|| + eps).
float RelativeL2Error(std::span<const float> a, std::span<const float> b);

}  // namespace speedllm
