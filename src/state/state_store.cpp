#include "state/state_store.hpp"

#include <bit>
#include <cassert>
#include <cstring>

#include "obs/prof.hpp"

namespace sfc::state {

namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

template <typename T>
bool read_pod(std::span<const std::uint8_t>& in, T& out) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&out, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

}  // namespace

StateStore::StateStore(std::size_t num_partitions)
    : num_partitions_(num_partitions), partition_mask_(num_partitions - 1) {
  assert(num_partitions >= 1 && num_partitions <= kMaxPartitions);
  assert(rt::is_pow2(num_partitions));
}

const Bytes* StateStore::get_locked(Key key) const noexcept {
  const auto& part = partitions_[partition_of(key)];
  const auto it = part.map.find(key);
  return it != part.map.end() ? &it->second : nullptr;
}

void StateStore::put_locked(Key key, Bytes value) {
  const auto pidx = partition_of(key);
  const auto [it, inserted] =
      partitions_[pidx].map.insert_or_assign(key, std::move(value));
  (void)it;
  if (inserted) note_insert(pidx);
}

bool StateStore::erase_locked(Key key) noexcept {
  const auto pidx = partition_of(key);
  if (partitions_[pidx].map.erase(key) == 0) return false;
  note_erase(pidx);
  return true;
}

void StateStore::apply(std::span<const StateUpdate> updates) {
  // Collect the touched partition set, lock in index order (deadlock-free
  // against other appliers), apply, release.
  obs::ProfStageTimer pt{obs::prof_slot(), obs::ProfStage::kStoreApply};
  std::uint64_t mask = 0;
  for (const auto& u : updates) mask |= 1ULL << partition_of(u.key);

  TxnSlot& slot = this_thread_slot();
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    if (mask & (1ULL << p)) partitions_[p].lock.lock_apply(&slot);
  }
  for (const auto& u : updates) {
    if (u.erase) {
      erase_locked(u.key);
    } else {
      put_locked(u.key, u.value);
    }
  }
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    if (mask & (1ULL << p)) partitions_[p].lock.unlock();
  }
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
      if (const auto it = part.map.find(key); it != part.map.end()) {
        out = it->second;
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (occ.version.load(std::memory_order_relaxed) == v1) break;
    }
    occ.reader_clock.fetch_add(1, std::memory_order_release);
    return out;
  }
  TxnSlot& slot = this_thread_slot();
  part.lock.lock_apply(&slot);
  std::optional<Bytes> out;
  if (const auto it = part.map.find(key); it != part.map.end()) {
    out = it->second;
  }
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

void StateStore::put_owner(Key key, Bytes value) {
  const auto pidx = partition_of(key);
  const auto [it, inserted] =
      partitions_[pidx].map.insert_or_assign(key, std::move(value));
  (void)it;
  if (inserted) note_insert(pidx);
}

bool StateStore::erase_owner(Key key) noexcept {
  const auto pidx = partition_of(key);
  if (partitions_[pidx].map.erase(key) == 0) return false;
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
      put_owner(u.key, Bytes(u.value.data(), u.value.size()));
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

void StateStore::clear() {
  TxnSlot& slot = this_thread_slot();
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    partitions_[p].lock.lock_apply(&slot);
    partitions_[p].map.clear();
    occupancy_[p].keys.store(0, std::memory_order_relaxed);
    partitions_[p].lock.unlock();
  }
}

void StateStore::serialize(std::vector<std::uint8_t>& out) {
  TxnSlot& slot = this_thread_slot();
  append_u32(out, static_cast<std::uint32_t>(num_partitions_));
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    partitions_[p].lock.lock_apply(&slot);
    append_u32(out, static_cast<std::uint32_t>(partitions_[p].map.size()));
    for (const auto& [key, value] : partitions_[p].map) {
      append_u64(out, key);
      append_u32(out, static_cast<std::uint32_t>(value.size()));
      out.insert(out.end(), value.data(), value.data() + value.size());
    }
    partitions_[p].lock.unlock();
  }
}

bool StateStore::deserialize(std::span<const std::uint8_t> in) {
  clear();
  std::uint32_t parts = 0;
  if (!read_pod(in, parts) || parts != num_partitions_) return false;
  TxnSlot& slot = this_thread_slot();
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    std::uint32_t entries = 0;
    if (!read_pod(in, entries)) return false;
    partitions_[p].lock.lock_apply(&slot);
    for (std::uint32_t i = 0; i < entries; ++i) {
      std::uint64_t key = 0;
      std::uint32_t len = 0;
      if (!read_pod(in, key) || !read_pod(in, len) || in.size() < len) {
        partitions_[p].lock.unlock();
        clear();
        return false;
      }
      if (partitions_[p].map.emplace(key, Bytes(in.data(), len)).second) {
        note_insert(p);
      }
      in = in.subspan(len);
    }
    partitions_[p].lock.unlock();
  }
  return in.empty();
}

}  // namespace sfc::state
