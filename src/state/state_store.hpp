// Partitioned key-value state store.
//
// One store holds the state of one middlebox. Keys are 64-bit (middleboxes
// hash flow tuples or variable names into them); values are small byte
// strings. The key space is hash-partitioned into at most kMaxPartitions
// (16) partitions, each with its own lock — the unit of concurrency
// control for packet transactions (head side) and of dependency tracking
// for replication (replica side). Partitioning is deterministic, so every
// replica of a middlebox assigns each key to the same partition.
//
// Each partition keeps its entries in a PartitionTable: one flat array of
// {key, value} slots with linear probing, each slot as wide as the values
// it holds, so an entry costs no heap node and a failover serializes and
// rebuilds a partition by walking one array.
//
// Shard-affine mode (enable_shard_affine) inverts the concurrency model:
// each partition has a single writer (its owning worker, see ShardMap),
// the partition lock is bypassed on the owner path, and monitoring/stats
// readers snapshot per-partition occupancy through a seqlock instead of
// blocking the writer. Cross-shard writes reach the owner through
// HandoffMesh rings (handoff_ring.hpp); readers of the table itself must
// be the owner or run quiesced (recovery serialize, post-convergence
// tests) — the seqlock acquire in get() supplies the happens-before edge.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/lock_rank.hpp"
#include "base/thread_annotations.hpp"
#include "runtime/common.hpp"
#include "runtime/rng.hpp"
#include "state/bytes.hpp"
#include "state/partition_lock.hpp"

namespace sfc::state {

using Key = std::uint64_t;

/// Maximum partitions per store; keeps "the set of touched partitions" a
/// few mask bits in piggyback logs and dependency vectors compact. The
/// paper sizes partitions to exceed the core count; 16 comfortably covers
/// the 8-thread middleboxes of the evaluation.
inline constexpr std::size_t kMaxPartitions = 16;

/// One element of a transaction's write set / a piggyback log.
struct StateUpdate {
  Key key{0};
  Bytes value{};
  bool erase{false};

  friend bool operator==(const StateUpdate& a, const StateUpdate& b) noexcept {
    return a.key == b.key && a.erase == b.erase && a.value == b.value;
  }
};

/// A state update whose value references bytes in place (the zero-copy
/// wire apply path): the span must stay valid for the duration of the
/// call it is passed to.
struct WireUpdate {
  Key key{0};
  std::span<const std::uint8_t> value{};
  bool erase{false};
};

/// One partition's entries: an open-addressing hash table.
///
/// Layout: a power-of-two array of slots plus one control byte per slot,
/// 0 for an empty slot, else 0x80 | seven hash bits, so a probe compares
/// keys only on a tag match. A slot is a 16-byte header (key, value size,
/// heap capacity) and an inline value area as wide as the widest value up
/// to kMaxInline the table has held, rounded up to 8 bytes: the table
/// learns the width when it allocates and widens it with a same-capacity
/// rehash when a wider value arrives (it never narrows), so a table of
/// 24-byte NAT records has 40-byte slots. A value longer than kMaxInline lives on the heap and its
/// slot's area holds the pointer. Probing is linear from the slot the top
/// bits of splitmix64(key) pick (the store's partition_of consumes the low
/// bits, which every key of one partition shares). The table doubles
/// before it is more than 7/8 full, and erase shifts the rest of the probe
/// run back into the hole, so there are no tombstones. Any insert may move
/// every slot (growth or widening) and any erase may move slots of its
/// run, so a view into the table stays valid only until the next write.
class PartitionTable : rt::NonCopyable {
 public:
  /// Widest value kept inside a slot; longer values spill to the heap.
  static constexpr std::size_t kMaxInline = Bytes::kInlineCapacity;

  PartitionTable() = default;
  ~PartitionTable();

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Sum of the entries' value sizes (sizes a serialized partition).
  std::size_t value_bytes() const noexcept { return value_bytes_; }
  /// Bytes of the slot array and its control bytes (heap spills excluded).
  std::size_t table_bytes() const noexcept {
    return capacity_ * (stride() + 1);
  }

  /// The value stored under @p key, or an absent view.
  BytesView find(Key key) const noexcept;
  /// Inserts or overwrites with a copy of @p value, which must not point
  /// into this table (the write may move it); true when the key was new.
  bool insert_or_assign(Key key, std::span<const std::uint8_t> value);
  /// Inserts a copy of @p value unless the key is present; true when it
  /// inserted.
  bool try_emplace(Key key, std::span<const std::uint8_t> value);
  bool erase(Key key) noexcept;

  /// Sizes the table so that @p n entries with values up to @p value_len
  /// bytes fit without another growth or widening. A fresh allocation of
  /// kPopulateBytes or more is faulted in with one call (the recovery
  /// path fills all of it at once); growth on insert does not.
  void reserve(std::size_t n, std::size_t value_len);
  /// Destroys every entry and keeps the slot array.
  void clear() noexcept;

  /// Calls @p fn(Key, BytesView) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != 0) fn(slot(i)->key, value_of(*slot(i)));
    }
  }

 private:
  /// A slot's header; the value area (width_ bytes) follows it.
  struct Slot {
    Key key;
    std::uint32_t size;           ///< value length
    std::uint32_t heap_capacity;  ///< 0: inline; else the area holds a pointer
  };
  static constexpr std::size_t kPopulateBytes = 64 * 1024;

  std::size_t stride() const noexcept { return sizeof(Slot) + width_; }
  Slot* slot(std::size_t i) const noexcept {
    return reinterpret_cast<Slot*>(slots_ + i * stride());
  }
  static std::uint8_t* area(Slot& s) noexcept {
    return reinterpret_cast<std::uint8_t*>(&s + 1);
  }
  static BytesView value_of(Slot& s) noexcept;
  /// Copies @p value into @p s, whose previous value (if any) it replaces.
  static void store(Slot& s, std::span<const std::uint8_t> value);
  static void release(Slot& s) noexcept;

  /// Slot index of @p key, or of the empty slot ending its probe run.
  std::size_t probe(Key key, std::uint64_t hash) const noexcept;
  std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> shift_);
  }
  /// Probes for @p key after making the table wide enough for a value of
  /// @p len bytes and, when the key is absent, roomy enough for one more
  /// entry. Returns the slot index; a live slot when the key is present.
  std::size_t prepare(Key key, std::uint64_t hash, std::size_t len);
  void emplace(std::size_t i, Key key, std::uint64_t hash,
               std::span<const std::uint8_t> value);
  void rehash(std::size_t capacity, std::size_t width, bool populate = false);

  std::uint8_t* slots_{nullptr};  ///< capacity_ slots of stride() bytes
  std::uint8_t* ctrl_{nullptr};   ///< same allocation, after the slots
  std::size_t capacity_{0};
  std::size_t size_{0};
  std::size_t value_bytes_{0};
  std::size_t width_{0};          ///< inline value area per slot
  unsigned shift_{64};            ///< 64 - log2(capacity_)
};

class StateStore : rt::NonCopyable {
 public:
  /// @param num_partitions Power of two in [1, kMaxPartitions]. The paper
  ///        recommends exceeding the core count to reduce contention;
  ///        kMaxPartitions (16) is the default.
  explicit StateStore(std::size_t num_partitions = kMaxPartitions);

  std::size_t num_partitions() const noexcept { return num_partitions_; }

  std::size_t partition_of(Key key) const noexcept {
    return rt::splitmix64(key) & partition_mask_;
  }

  /// Bitmask with one bit set per existing partition.
  std::uint64_t partition_bits() const noexcept {
    return (partition_mask_ << 1) | 1;
  }

  PartitionLock& partition_lock(std::size_t pidx) noexcept {
    return partitions_[pidx].lock;
  }

  /// --- Primitive accessors. Caller must hold the partition's lock. ---
  /// Which partition lock guards a key is data-dependent (partition_of),
  /// so the requirement is not expressible as a static TSA capability;
  /// the lock-rank detector covers the dynamic discipline instead.
  /// get_locked's view stays valid until the next write to the key's
  /// partition (see PartitionTable); put_locked copies @p value.
  BytesView get_locked(Key key) const noexcept;
  void put_locked(Key key, BytesView value);
  bool erase_locked(Key key) noexcept;

  /// Convenience point read. Locked mode takes the partition lock;
  /// shard-affine mode is a seqlock reader: version-stable retry loop,
  /// then a reader-clock release bump that the owner's next write section
  /// acquires, so a converged-store read is ordered on both sides (exact
  /// for quiesced/converged stores, the only supported use).
  std::optional<Bytes> get(Key key);

  /// Total entries across partitions. Lock-free: sums the per-partition
  /// occupancy counters, which are maintained under the same exclusivity
  /// as the table itself (exact whenever the store is quiesced).
  std::size_t total_entries();

  // --- Shard-affine (single-writer) mode. -------------------------------
  /// Switches the store to shard-affine apply: *_owner mutators skip the
  /// partition lock entirely. The caller guarantees the single-writer
  /// discipline — each partition mutated only by its owning worker thread,
  /// or by any thread while the node is quiesced.
  void enable_shard_affine() noexcept { shard_affine_ = true; }
  bool shard_affine() const noexcept { return shard_affine_; }

  /// Opens/closes a seqlock write section over the partitions in @p pmask:
  /// version goes odd, mutations land, version goes even with release so
  /// stats readers retry instead of blocking and get() readers inherit the
  /// happens-before. Sections must be tiny — the kSeqlockWrite lock rank
  /// aborts the run if the owner blocks on ANY lock inside one.
  void owner_write_begin(std::uint64_t pmask) noexcept;
  void owner_write_end(std::uint64_t pmask) noexcept;

  /// Owner-path mutators: no lock, no atomic RMW. Call inside an
  /// owner_write_begin/end section covering the key's partition.
  void put_owner(Key key, BytesView value);
  bool erase_owner(Key key) noexcept;

  /// Owner-path batch applies. @p pmask filters: updates whose partition
  /// is outside the mask are skipped (the cross-shard portion a handoff
  /// ring delivers to another owner). Pass ~0ull to apply everything.
  void apply_owner(std::span<const StateUpdate> updates, std::uint64_t pmask);
  void apply_wire_owner(std::span<const WireUpdate> updates,
                        std::uint64_t pmask);

  /// Seqlock-consistent occupancy snapshot of one partition. Never blocks
  /// the writer; retries while a write section is open.
  struct OccupancySnapshot {
    std::uint64_t keys{0};
    std::uint64_t keys_hw{0};
  };
  OccupancySnapshot occupancy(std::size_t pidx) const noexcept;

  /// Highest per-partition occupancy high-water mark (registry gauge).
  std::uint64_t keys_high_water() const noexcept;

  /// Slots allocated across partitions. Exact when quiesced.
  std::size_t capacity() const noexcept;
  /// Bytes the partitions' tables hold (PartitionTable::table_bytes).
  /// Exact when quiesced.
  std::size_t table_bytes() const noexcept;

  /// Drops all entries and keeps the tables' slots (takes all locks).
  void clear();

  /// --- Recovery serialization. ---
  /// Appends every entry to @p out: the partition count, then per
  /// partition its entry count and each entry as key, value length and
  /// value bytes, in slot order. Takes partition locks one at a time, so
  /// call only while the store is quiesced (recovery guarantees this).
  void serialize(std::vector<std::uint8_t>& out);

  /// Bytes serialize() appends (exact while the store is quiesced).
  std::size_t serialized_size() const noexcept;

  /// Replaces the store contents from serialize() output, sizing each
  /// table once from its entry count and widest value. Returns false on
  /// malformed input (store left cleared): a count the remaining bytes
  /// cannot hold, a truncated entry, a key outside its partition or a
  /// repeated key.
  bool deserialize(std::span<const std::uint8_t> in);

 private:
  struct Partition {
    PartitionLock lock;
    PartitionTable table;
  };

  /// Per-partition occupancy stats, written only under the partition's
  /// write exclusivity (lock or shard ownership) and read through the
  /// seqlock. Cache-line padded: the owner's version bump must not false-
  /// share with a neighboring partition's owner.
  struct alignas(rt::kCacheLineSize) Occupancy {
    std::atomic<std::uint64_t> version{0};  ///< seqlock; odd = write open
    std::atomic<std::uint64_t> keys{0};
    std::atomic<std::uint64_t> keys_hw{0};
    /// Bumped (release) by a foreign get() after its table read completes;
    /// acquire-loaded by owner_write_begin. Orders converged-store reads
    /// before the owner's NEXT write section — the direction the seqlock
    /// version alone cannot give (version end-release only orders past
    /// writes before later reads).
    std::atomic<std::uint64_t> reader_clock{0};
  };

  /// Single-writer counter maintenance (no RMW: exclusivity comes from the
  /// partition lock or shard ownership).
  void note_insert(std::size_t pidx) noexcept {
    auto& occ = occupancy_[pidx];
    const auto keys = occ.keys.load(std::memory_order_relaxed) + 1;
    occ.keys.store(keys, std::memory_order_relaxed);
    if (keys > occ.keys_hw.load(std::memory_order_relaxed)) {
      occ.keys_hw.store(keys, std::memory_order_relaxed);
    }
  }
  void note_erase(std::size_t pidx) noexcept {
    auto& occ = occupancy_[pidx];
    occ.keys.store(occ.keys.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
  }

  std::size_t num_partitions_;
  std::size_t partition_mask_;
  bool shard_affine_{false};
  std::array<Partition, kMaxPartitions> partitions_;
  std::array<Occupancy, kMaxPartitions> occupancy_;
};

/// Derives a state key from a name string (for named shared variables like
/// Monitor's counters). FNV-1a, stable across runs and replicas.
constexpr Key key_of_name(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sfc::state
