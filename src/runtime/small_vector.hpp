// Small vector with inline storage.
//
// The FTC data plane builds a handful of tiny collections per packet per
// server (piggyback logs, their write sets, commit vectors). With
// std::vector each costs a heap round trip; SmallVector keeps up to N
// elements inline and only touches the allocator beyond that — the same
// trick Click's packet annotations and LLVM's SmallVector use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sfc::rt {

template <typename T, std::size_t N>
class SmallVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept = default;

  SmallVector(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVector(const SmallVector& other) {
    reserve(other.size_);
    for (const T& v : other) emplace_back(v);
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (const T& v : other) emplace_back(v);
    return *this;
  }

  SmallVector(SmallVector&& other) noexcept { move_from(std::move(other)); }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    destroy();
    move_from(std::move(other));
    return *this;
  }

  ~SmallVector() { destroy(); }

  T* data() noexcept { return ptr_; }
  const T* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  iterator begin() noexcept { return ptr_; }
  iterator end() noexcept { return ptr_ + size_; }
  const_iterator begin() const noexcept { return ptr_; }
  const_iterator end() const noexcept { return ptr_ + size_; }

  T& operator[](std::size_t i) noexcept { return ptr_[i]; }
  const T& operator[](std::size_t i) const noexcept { return ptr_[i]; }
  T& front() noexcept { return ptr_[0]; }
  T& back() noexcept { return ptr_[size_ - 1]; }
  const T& front() const noexcept { return ptr_[0]; }
  const T& back() const noexcept { return ptr_[size_ - 1]; }

  void reserve(std::size_t want) {
    if (want <= capacity_) return;
    const std::size_t new_cap = std::max(want, capacity_ * 2);
    T* heap = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      new (heap + i) T(std::move(ptr_[i]));
      ptr_[i].~T();
    }
    if (ptr_ != inline_data()) ::operator delete(ptr_);
    ptr_ = heap;
    capacity_ = new_cap;
  }

  /// Sets the size to @p n, leaving new elements uninitialized: for a
  /// byte buffer the caller fills in place (an encoder's output).
  void resize_uninitialized(std::size_t n)
    requires std::is_trivially_copyable_v<T>
  {
    reserve(n);
    size_ = n;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) reserve(size_ + 1);
    T* slot = new (ptr_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_back() noexcept {
    ptr_[--size_].~T();
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) ptr_[i].~T();
    size_ = 0;
  }

  /// Removes all elements matching @p pred, preserving order.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!pred(ptr_[i])) {
        if (out != i) ptr_[out] = std::move(ptr_[i]);
        ++out;
      }
    }
    const std::size_t removed = size_ - out;
    while (size_ > out) pop_back();
    return removed;
  }

  /// Moves all elements of @p other onto the back of this.
  void append_move(SmallVector&& other) {
    reserve(size_ + other.size_);
    for (T& v : other) emplace_back(std::move(v));
    other.clear();
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  T* inline_data() noexcept { return reinterpret_cast<T*>(storage_); }

  void destroy() noexcept {
    clear();
    if (ptr_ != inline_data()) {
      ::operator delete(ptr_);
      ptr_ = inline_data();
      capacity_ = N;
    }
  }

  void move_from(SmallVector&& other) noexcept {
    if (other.ptr_ != other.inline_data()) {
      // Steal the heap buffer.
      ptr_ = other.ptr_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.ptr_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
    } else {
      ptr_ = inline_data();
      capacity_ = N;
      size_ = other.size_;
      for (std::size_t i = 0; i < size_; ++i) {
        new (ptr_ + i) T(std::move(other.ptr_[i]));
        other.ptr_[i].~T();
      }
      other.size_ = 0;
    }
  }

  alignas(T) unsigned char storage_[N * sizeof(T)];
  T* ptr_{inline_data()};
  std::size_t size_{0};
  std::size_t capacity_{N};
};

}  // namespace sfc::rt
