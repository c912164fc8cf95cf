#include "state/state_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <memory>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

#include "obs/prof.hpp"

namespace sfc::state {

namespace {

/// Control byte of a slot: 0 is empty, an entry's is 0x80 | seven bits of
/// its hash. Bits 8..14 are clear of both the partition (low four bits)
/// and the slot index (top bits, capacity below 2^49).
constexpr std::uint8_t kEmptySlot = 0;
constexpr std::uint8_t tag_of(std::uint64_t hash) noexcept {
  return static_cast<std::uint8_t>(0x80u | ((hash >> 8) & 0x7fu));
}

constexpr std::size_t kMinCapacity = 16;
/// Maximum load 7/8: the probe never wraps the whole table, and a probe
/// run always ends at an empty slot.
constexpr std::size_t max_load(std::size_t capacity) noexcept {
  return capacity - capacity / 8;
}

/// Inline area a slot needs for a value of @p len bytes: the value rounded
/// up to 8 bytes, or a heap pointer past PartitionTable::kMaxInline.
constexpr std::size_t area_width(std::size_t len) noexcept {
  if (len > PartitionTable::kMaxInline) return sizeof(std::uint8_t*);
  return std::max<std::size_t>(sizeof(std::uint8_t*), (len + 7) & ~std::size_t{7});
}

/// Faults in the whole pages of [p, p + n) with one call instead of one
/// fault per page on first touch. Best effort: where the kernel refuses
/// MADV_POPULATE_WRITE (before Linux 5.14), the pages fault in as they are
/// written.
void populate_pages(void* p, std::size_t n) noexcept {
  static const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = (reinterpret_cast<std::uintptr_t>(p) + page - 1) & ~(page - 1);
  const auto end = (reinterpret_cast<std::uintptr_t>(p) + n) & ~(page - 1);
  if (end > begin) {
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_POPULATE_WRITE);
  }
}

/// A serialized entry is at least its key and its value length.
constexpr std::size_t kMinEntryBytes = sizeof(Key) + sizeof(std::uint32_t);

template <typename T>
std::uint8_t* put_pod(std::uint8_t* w, const T& v) noexcept {
  std::memcpy(w, &v, sizeof(T));
  return w + sizeof(T);
}

template <typename T>
bool read_pod(std::span<const std::uint8_t>& in, T& out) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&out, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

/// Length of the longest value among the first @p entries serialized
/// entries of @p in, or nullopt when they run past its end.
std::optional<std::size_t> widest_value(std::span<const std::uint8_t> in,
                                        std::uint32_t entries) {
  std::size_t widest = 0;
  for (std::uint32_t i = 0; i < entries; ++i) {
    std::uint32_t len = 0;
    if (in.size() < kMinEntryBytes) return std::nullopt;
    std::memcpy(&len, in.data() + sizeof(Key), sizeof(len));
    in = in.subspan(kMinEntryBytes);
    if (in.size() < len) return std::nullopt;
    in = in.subspan(len);
    widest = std::max<std::size_t>(widest, len);
  }
  return widest;
}

}  // namespace

// --- PartitionTable ---------------------------------------------------------

PartitionTable::~PartitionTable() {
  clear();
  ::operator delete(slots_);
}

BytesView PartitionTable::value_of(Slot& s) noexcept {
  if (s.heap_capacity == 0) return {area(s), s.size};
  const std::uint8_t* heap = nullptr;
  std::memcpy(&heap, area(s), sizeof(heap));
  return {heap, s.size};
}

void PartitionTable::store(Slot& s, std::span<const std::uint8_t> value) {
  std::uint8_t* dst = area(s);
  if (value.size() > kMaxInline) {
    if (s.heap_capacity >= value.size()) {
      std::memcpy(&dst, area(s), sizeof(dst));
    } else {
      dst = new std::uint8_t[value.size()];
      release(s);
      std::memcpy(area(s), &dst, sizeof(dst));
      s.heap_capacity = static_cast<std::uint32_t>(value.size());
    }
  } else {
    release(s);
  }
  // An empty span may carry a null data(); memcpy's arguments are
  // declared nonnull even for n == 0 (UBSan flags it).
  if (!value.empty()) std::memcpy(dst, value.data(), value.size());
  s.size = static_cast<std::uint32_t>(value.size());
}

void PartitionTable::release(Slot& s) noexcept {
  if (s.heap_capacity == 0) return;
  std::uint8_t* heap = nullptr;
  std::memcpy(&heap, area(s), sizeof(heap));
  delete[] heap;
  s.heap_capacity = 0;
}

std::size_t PartitionTable::probe(Key key,
                                  std::uint64_t hash) const noexcept {
  const std::uint8_t tag = tag_of(hash);
  const std::size_t mask = capacity_ - 1;
  for (std::size_t i = home(hash);; i = (i + 1) & mask) {
    const std::uint8_t c = ctrl_[i];
    if (c == kEmptySlot || (c == tag && slot(i)->key == key)) return i;
  }
}

BytesView PartitionTable::find(Key key) const noexcept {
  if (size_ == 0) return {};
  const std::size_t i = probe(key, rt::splitmix64(key));
  return ctrl_[i] != kEmptySlot ? value_of(*slot(i)) : BytesView{};
}

std::size_t PartitionTable::prepare(Key key, std::uint64_t hash,
                                    std::size_t len) {
  const std::size_t width = std::max(width_, area_width(len));
  std::size_t capacity = kMinCapacity;
  if (capacity_ != 0) {
    const std::size_t i = probe(key, hash);
    const bool room = ctrl_[i] != kEmptySlot || size_ < max_load(capacity_);
    if (room && width == width_) return i;
    capacity = room ? capacity_ : capacity_ * 2;
  }
  rehash(capacity, width);
  return probe(key, hash);
}

void PartitionTable::emplace(std::size_t i, Key key, std::uint64_t hash,
                             std::span<const std::uint8_t> value) {
  Slot& s = *std::construct_at(slot(i), Slot{key, 0, 0});
  store(s, value);
  ctrl_[i] = tag_of(hash);
  ++size_;
  value_bytes_ += value.size();
}

bool PartitionTable::insert_or_assign(Key key,
                                      std::span<const std::uint8_t> value) {
  const std::uint64_t hash = rt::splitmix64(key);
  const std::size_t i = prepare(key, hash, value.size());
  if (ctrl_[i] == kEmptySlot) {
    emplace(i, key, hash, value);
    return true;
  }
  Slot& s = *slot(i);
  value_bytes_ += value.size() - s.size;
  store(s, value);
  return false;
}

bool PartitionTable::try_emplace(Key key,
                                 std::span<const std::uint8_t> value) {
  const std::uint64_t hash = rt::splitmix64(key);
  const std::size_t i = prepare(key, hash, value.size());
  if (ctrl_[i] != kEmptySlot) return false;
  emplace(i, key, hash, value);
  return true;
}

bool PartitionTable::erase(Key key) noexcept {
  if (size_ == 0) return false;
  std::size_t hole = probe(key, rt::splitmix64(key));
  if (ctrl_[hole] == kEmptySlot) return false;
  value_bytes_ -= slot(hole)->size;
  release(*slot(hole));
  // Backward shift: walk the rest of the probe run and move back into the
  // hole every entry whose home slot does not lie in (hole, j], so every
  // entry stays reachable from its home without a tombstone. A slot is
  // plain bytes (a heap value is owned through the pointer it holds), so
  // moving one is a copy.
  const std::size_t mask = capacity_ - 1;
  for (std::size_t j = (hole + 1) & mask; ctrl_[j] != kEmptySlot;
       j = (j + 1) & mask) {
    const std::size_t h = home(rt::splitmix64(slot(j)->key));
    if (((j - h) & mask) < ((j - hole) & mask)) continue;
    std::memcpy(slot(hole), slot(j), stride());
    ctrl_[hole] = ctrl_[j];
    hole = j;
  }
  ctrl_[hole] = kEmptySlot;
  --size_;
  return true;
}

void PartitionTable::reserve(std::size_t n, std::size_t value_len) {
  const std::size_t width = std::max(width_, area_width(value_len));
  std::size_t capacity = std::max(capacity_, kMinCapacity);
  while (max_load(capacity) < n) capacity *= 2;
  if (capacity != capacity_ || width != width_) {
    rehash(capacity, width, /*populate=*/true);
  }
}

void PartitionTable::clear() noexcept {
  if (size_ == 0) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (ctrl_[i] != kEmptySlot) release(*slot(i));
  }
  std::memset(ctrl_, kEmptySlot, capacity_);
  size_ = 0;
  value_bytes_ = 0;
}

void PartitionTable::rehash(std::size_t capacity, std::size_t width,
                            bool populate) {
  assert(rt::is_pow2(capacity) && max_load(capacity) >= size_);
  assert(width >= width_ && width % 8 == 0 && width <= kMaxInline);
  // One allocation: the slots, then the control bytes.
  const std::size_t new_stride = sizeof(Slot) + width;
  const std::size_t bytes = capacity * (new_stride + 1);
  auto* slots = static_cast<std::uint8_t*>(::operator new(bytes));
  if (populate && bytes >= kPopulateBytes) populate_pages(slots, bytes);
  std::uint8_t* ctrl = slots + capacity * new_stride;
  std::memset(ctrl, kEmptySlot, capacity);
  const auto shift = 64u - static_cast<unsigned>(std::countr_zero(capacity));
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (ctrl_[i] == kEmptySlot) continue;
    const std::uint64_t hash = rt::splitmix64(slot(i)->key);
    std::size_t j = static_cast<std::size_t>(hash >> shift);
    while (ctrl[j] != kEmptySlot) j = (j + 1) & (capacity - 1);
    // The old area fits in the new one (widths only grow).
    std::memcpy(slots + j * new_stride, slot(i), stride());
    ctrl[j] = ctrl_[i];
  }
  ::operator delete(slots_);
  slots_ = slots;
  ctrl_ = ctrl;
  capacity_ = capacity;
  width_ = width;
  shift_ = shift;
}

// --- StateStore -------------------------------------------------------------

StateStore::StateStore(std::size_t num_partitions)
    : num_partitions_(num_partitions), partition_mask_(num_partitions - 1) {
  assert(num_partitions >= 1 && num_partitions <= kMaxPartitions);
  assert(rt::is_pow2(num_partitions));
}

BytesView StateStore::get_locked(Key key) const noexcept {
  return partitions_[partition_of(key)].table.find(key);
}

void StateStore::put_locked(Key key, BytesView value) {
  const auto pidx = partition_of(key);
  if (partitions_[pidx].table.insert_or_assign(key, value.span())) {
    note_insert(pidx);
  }
}

bool StateStore::erase_locked(Key key) noexcept {
  const auto pidx = partition_of(key);
  if (!partitions_[pidx].table.erase(key)) return false;
  note_erase(pidx);
  return true;
}

std::optional<Bytes> StateStore::get(Key key) {
  const auto pidx = partition_of(key);
  auto& part = partitions_[pidx];
  if (shard_affine_) {
    // The owner never takes the partition lock in shard mode, so taking
    // it here would not exclude the writer anyway. Seqlock read protocol:
    // the version acquire synchronizes with the owner's last completed
    // write section (past writes ordered before this read), the stability
    // re-check catches a section that opened mid-read, and the trailing
    // reader-clock release bump is acquired by the owner's next
    // owner_write_begin (this read ordered before future writes). Exact
    // for quiesced/converged stores, which is the supported use.
    auto& occ = occupancy_[pidx];
    std::optional<Bytes> out;
    for (;;) {
      const auto v1 = occ.version.load(std::memory_order_acquire);
      if ((v1 & 1) != 0) {
        rt::cpu_relax();
        continue;
      }
      out.reset();
      if (const BytesView v = part.table.find(key)) out.emplace(v.span());
      std::atomic_thread_fence(std::memory_order_acquire);
      if (occ.version.load(std::memory_order_relaxed) == v1) break;
    }
    occ.reader_clock.fetch_add(1, std::memory_order_release);
    return out;
  }
  TxnSlot& slot = this_thread_slot();
  part.lock.lock_apply(&slot);
  std::optional<Bytes> out;
  if (const BytesView v = part.table.find(key)) out.emplace(v.span());
  part.lock.unlock();
  return out;
}

std::size_t StateStore::total_entries() {
  std::size_t total = 0;
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    total += occupancy_[p].keys.load(std::memory_order_acquire);
  }
  return total;
}

void StateStore::owner_write_begin(std::uint64_t pmask) noexcept {
  for (std::uint64_t m = pmask & partition_bits(); m != 0; m &= m - 1) {
    auto& occ = occupancy_[static_cast<std::size_t>(std::countr_zero(m))];
    // Acquire the foreign readers' clock: any converged-store get() that
    // bumped it happens-before this section's map writes. One load, no
    // RMW — the hot path stays single-writer pure.
    (void)occ.reader_clock.load(std::memory_order_acquire);
    auto& v = occ.version;
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  // Record the open write section as a held pseudo-lock at the very lowest
  // rank: blocking on ANYTHING (even the logging mutex) inside a seqlock
  // write aborts, which keeps readers' retry windows bounded.
  lockrank::note_held(this, ranks::kSeqlockWrite, "state.seqlock_write");
}

void StateStore::owner_write_end(std::uint64_t pmask) noexcept {
  lockrank::note_release(this);
  for (std::uint64_t m = pmask & partition_bits(); m != 0; m &= m - 1) {
    auto& v = occupancy_[static_cast<std::size_t>(std::countr_zero(m))].version;
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }
}

void StateStore::put_owner(Key key, BytesView value) {
  const auto pidx = partition_of(key);
  if (partitions_[pidx].table.insert_or_assign(key, value.span())) {
    note_insert(pidx);
  }
}

bool StateStore::erase_owner(Key key) noexcept {
  const auto pidx = partition_of(key);
  if (!partitions_[pidx].table.erase(key)) return false;
  note_erase(pidx);
  return true;
}

void StateStore::apply_owner(std::span<const StateUpdate> updates,
                             std::uint64_t pmask) {
  obs::ProfStageTimer pt{obs::prof_slot(), obs::ProfStage::kStoreApply};
  owner_write_begin(pmask);
  for (const auto& u : updates) {
    if (((pmask >> partition_of(u.key)) & 1u) == 0) continue;
    if (u.erase) {
      erase_owner(u.key);
    } else {
      put_owner(u.key, u.value);
    }
  }
  owner_write_end(pmask);
}

void StateStore::apply_wire_owner(std::span<const WireUpdate> updates,
                                  std::uint64_t pmask) {
  obs::ProfStageTimer pt{obs::prof_slot(), obs::ProfStage::kStoreApply};
  owner_write_begin(pmask);
  for (const auto& u : updates) {
    if (((pmask >> partition_of(u.key)) & 1u) == 0) continue;
    if (u.erase) {
      erase_owner(u.key);
    } else {
      put_owner(u.key, {u.value.data(), u.value.size()});
    }
  }
  owner_write_end(pmask);
}

StateStore::OccupancySnapshot StateStore::occupancy(
    std::size_t pidx) const noexcept {
  const auto& occ = occupancy_[pidx];
  for (;;) {
    const auto v1 = occ.version.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) {
      rt::cpu_relax();
      continue;
    }
    OccupancySnapshot snap;
    snap.keys = occ.keys.load(std::memory_order_relaxed);
    snap.keys_hw = occ.keys_hw.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (occ.version.load(std::memory_order_relaxed) == v1) return snap;
  }
}

std::uint64_t StateStore::keys_high_water() const noexcept {
  std::uint64_t hw = 0;
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    const auto v = occupancy_[p].keys_hw.load(std::memory_order_acquire);
    if (v > hw) hw = v;
  }
  return hw;
}

std::size_t StateStore::capacity() const noexcept {
  std::size_t slots = 0;
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    slots += partitions_[p].table.capacity();
  }
  return slots;
}

std::size_t StateStore::table_bytes() const noexcept {
  std::size_t bytes = 0;
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    bytes += partitions_[p].table.table_bytes();
  }
  return bytes;
}

void StateStore::clear() {
  TxnSlot& slot = this_thread_slot();
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    partitions_[p].lock.lock_apply(&slot);
    partitions_[p].table.clear();
    occupancy_[p].keys.store(0, std::memory_order_relaxed);
    partitions_[p].lock.unlock();
  }
}

std::size_t StateStore::serialized_size() const noexcept {
  std::size_t bytes = sizeof(std::uint32_t);
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    const PartitionTable& table = partitions_[p].table;
    bytes += sizeof(std::uint32_t) + table.size() * kMinEntryBytes +
             table.value_bytes();
  }
  return bytes;
}

void StateStore::serialize(std::vector<std::uint8_t>& out) {
  TxnSlot& slot = this_thread_slot();
  // Quiesced: the size read here holds through the writes below, so the
  // section is sized exactly and written in place with one growth.
  const std::size_t at = out.size();
  out.resize(at + serialized_size());
  std::uint8_t* w = put_pod(out.data() + at,
                            static_cast<std::uint32_t>(num_partitions_));
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    const PartitionTable& table = partitions_[p].table;
    partitions_[p].lock.lock_apply(&slot);
    w = put_pod(w, static_cast<std::uint32_t>(table.size()));
    table.for_each([&](Key key, BytesView value) {
      w = put_pod(w, key);
      w = put_pod(w, static_cast<std::uint32_t>(value.size()));
      if (value.size() != 0) std::memcpy(w, value.data(), value.size());
      w += value.size();
    });
    partitions_[p].lock.unlock();
  }
  assert(w == out.data() + out.size());
}

bool StateStore::deserialize(std::span<const std::uint8_t> in) {
  clear();
  std::uint32_t parts = 0;
  if (!read_pod(in, parts) || parts != num_partitions_) return false;
  TxnSlot& slot = this_thread_slot();
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    std::uint32_t entries = 0;
    std::optional<std::size_t> widest;
    // The count and the widest value size the table, so entries the
    // remaining bytes cannot hold fail the blob before anything is
    // allocated from them.
    if (!read_pod(in, entries) || !(widest = widest_value(in, entries))) {
      clear();
      return false;
    }
    PartitionTable& table = partitions_[p].table;
    partitions_[p].lock.lock_apply(&slot);
    table.reserve(entries, *widest);
    bool ok = true;
    for (std::uint32_t i = 0; ok && i < entries; ++i) {
      std::uint64_t key = 0;
      std::uint32_t len = 0;
      ok = read_pod(in, key) && read_pod(in, len) && in.size() >= len &&
           partition_of(key) == p && table.try_emplace(key, in.first(len));
      if (ok) {
        note_insert(p);
        in = in.subspan(len);
      }
    }
    partitions_[p].lock.unlock();
    if (!ok) {
      clear();
      return false;
    }
  }
  if (!in.empty()) {
    clear();
    return false;
  }
  return true;
}

}  // namespace sfc::state
