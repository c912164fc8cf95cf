// Byte strings for state values: an owning Bytes and a borrowed BytesView.
//
// Middlebox state values are small (a NAT record is 24 B, a counter 8 B;
// the paper's Gen middlebox tests up to 256 B), so a Bytes holds values up
// to 64 bytes inline and never touches the allocator on the per-packet
// path. A Bytes travels in transactions' write sets and piggyback logs; the
// store's tables keep values in slots as wide as the values they hold (see
// PartitionTable) and lend them out as BytesView.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

namespace sfc::state {

/// A read-only view of a value held elsewhere. A default view is absent,
/// which is distinct from a present empty value (non-null data, size 0).
class BytesView {
 public:
  BytesView() noexcept = default;
  BytesView(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  explicit operator bool() const noexcept { return data_ != nullptr; }
  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::span<const std::uint8_t> span() const noexcept { return {data_, size_}; }

  /// Typed load; returns default-constructed T when sizes mismatch.
  template <typename T>
  T as() const noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    T out{};
    if (size_ == sizeof(T)) std::memcpy(&out, data_, sizeof(T));
    return out;
  }

 private:
  const std::uint8_t* data_{nullptr};
  std::size_t size_{0};
};

class Bytes {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  Bytes() noexcept = default;

  Bytes(std::span<const std::uint8_t> data) { assign(data); }
  Bytes(const void* data, std::size_t len) {
    assign({static_cast<const std::uint8_t*>(data), len});
  }

  Bytes(const Bytes& other) { assign(other.span()); }
  Bytes& operator=(const Bytes& other) {
    if (this != &other) assign(other.span());
    return *this;
  }

  Bytes(Bytes&& other) noexcept { move_from(std::move(other)); }
  Bytes& operator=(Bytes&& other) noexcept {
    if (this != &other) {
      release();
      move_from(std::move(other));
    }
    return *this;
  }

  ~Bytes() { release(); }

  void assign(std::span<const std::uint8_t> data) {
    reserve(data.size());
    // An empty span may carry a null data(); memcpy's arguments are
    // declared nonnull even for n == 0 (UBSan flags it).
    if (!data.empty()) {
      std::memcpy(mutable_data(), data.data(), data.size());
    }
    size_ = static_cast<std::uint32_t>(data.size());
  }

  /// Typed store of a trivially-copyable value.
  template <typename T>
  static Bytes of(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Bytes(&value, sizeof(T));
  }

  /// Typed load; returns default-constructed T when sizes mismatch.
  template <typename T>
  T as() const noexcept {
    return BytesView(*this).as<T>();
  }

  const std::uint8_t* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  std::uint8_t* mutable_data() noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::span<const std::uint8_t> span() const noexcept { return {data(), size_}; }
  operator BytesView() const noexcept { return {data(), size_}; }

  friend bool operator==(const Bytes& a, const Bytes& b) noexcept {
    return a.size_ == b.size_ && std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  void reserve(std::size_t n) {
    if (n <= kInlineCapacity) {
      release();
      return;
    }
    if (heap_ != nullptr && capacity_ >= n) return;
    release();
    heap_ = new std::uint8_t[n];
    capacity_ = static_cast<std::uint32_t>(n);
  }

  void release() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = 0;
  }

  void move_from(Bytes&& other) noexcept {
    heap_ = std::exchange(other.heap_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    if (heap_ == nullptr && size_ > 0) {
      std::memcpy(inline_, other.inline_, size_);
    }
  }

  std::uint8_t inline_[kInlineCapacity];
  std::uint8_t* heap_{nullptr};
  std::uint32_t capacity_{0};
  std::uint32_t size_{0};
};

}  // namespace sfc::state
