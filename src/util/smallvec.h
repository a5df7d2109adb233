// SmallVec: a vector with inline storage for small element counts.
//
// The simulation core keeps many tiny sequences whose typical length is
// known and small — DnsName label offsets (≤ ~6 labels for real names),
// short per-entry bookkeeping — where std::vector's unconditional heap
// allocation dominates the cost of the structure itself. SmallVec stores up
// to N elements inline and only touches the heap beyond that.
//
// Restricted to trivially copyable element types: that keeps copy/move a
// memcpy, which is the whole point (the flat DnsName copies its offsets on
// every cache-key construction). Iteration order is insertion order, so the
// container is determinism-safe by construction (tools/curtain_lint knows
// this; see its order-safe container list).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <type_traits>

namespace curtain::util {

template <typename T, size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is restricted to trivially copyable types");
  static_assert(N > 0, "inline capacity must be at least 1");

 public:
  SmallVec() = default;
  SmallVec(std::initializer_list<T> values) {
    assign(values.begin(), values.size());
  }

  SmallVec(const SmallVec& other) { assign(other.data(), other.size_); }
  SmallVec(SmallVec&& other) noexcept { steal(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear_storage();
      assign(other.data(), other.size_);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear_storage();
      steal(other);
    }
    return *this;
  }

  ~SmallVec() { clear_storage(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  const T* data() const { return heap_ != nullptr ? heap_ : inline_; }
  T* data() { return heap_ != nullptr ? heap_ : inline_; }

  const T& operator[](size_t i) const { return data()[i]; }
  T& operator[](size_t i) { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size_ - 1]; }

  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void clear() { size_ = 0; }

  void reserve(size_t wanted) {
    if (wanted > capacity_) grow(wanted);
  }

  void push_back(T value) {
    if (size_ == capacity_) grow(size_t{capacity_} * 2);
    data()[size_++] = value;
  }

  void pop_back() { --size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator<(const SmallVec& a, const SmallVec& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void assign(const T* src, size_t n) {
    if (n > N) {
      heap_ = new T[n];
      capacity_ = static_cast<uint32_t>(n);
    }
    std::memcpy(data(), src, n * sizeof(T));
    size_ = static_cast<uint32_t>(n);
  }

  /// Takes `other`'s storage (heap buffer or inline bytes), leaving it empty.
  void steal(SmallVec& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  void clear_storage() {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = N;
    size_ = 0;
  }

  void grow(size_t wanted) {
    const size_t new_capacity = std::max(wanted, size_t{capacity_} * 2);
    T* grown = new T[new_capacity];
    std::memcpy(grown, data(), size_ * sizeof(T));
    delete[] heap_;
    heap_ = grown;
    capacity_ = static_cast<uint32_t>(new_capacity);
  }

  T* heap_ = nullptr;  ///< null while the inline buffer suffices
  /// 32-bit counts keep a SmallVec<uint8_t, 8> at 24 bytes: DnsName holds
  /// one beside its table pointer within the flat name's old footprint.
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  T inline_[N];
};

}  // namespace curtain::util
