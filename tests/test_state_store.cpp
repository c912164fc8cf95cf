// Unit tests for the state substrate: Bytes, StateStore, serialization.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/rng.hpp"
#include "state/bytes.hpp"
#include "state/state_store.hpp"
#include "wire_oracle.hpp"

namespace sfc::state {
namespace {

TEST(Bytes, DefaultIsEmpty) {
  Bytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
}

TEST(Bytes, InlineRoundTrip) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  Bytes b(data, sizeof(data));
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(std::memcmp(b.data(), data, 5), 0);
}

TEST(Bytes, HeapRoundTrip) {
  std::vector<std::uint8_t> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  Bytes b(big.data(), big.size());
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(std::memcmp(b.data(), big.data(), big.size()), 0);
}

TEST(Bytes, AssignEmptySpanWithNullData) {
  // An empty std::span carries a null data() pointer; assign() must not
  // feed it to memcpy (UBSan: null passed to a nonnull argument).
  Bytes b(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("xyz"), 3));
  b.assign(std::span<const std::uint8_t>{});
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b, Bytes());
}

TEST(Bytes, CopySemantics) {
  Bytes a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("hello"), 5));
  Bytes b = a;
  EXPECT_EQ(a, b);
  const std::uint8_t other[] = {9};
  b.assign({other, 1});
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 5u);
}

TEST(Bytes, MoveSemantics) {
  std::vector<std::uint8_t> big(500, 0xab);
  Bytes a(big.data(), big.size());
  const auto* heap = a.data();
  Bytes b = std::move(a);
  EXPECT_EQ(b.size(), 500u);
  EXPECT_EQ(b.data(), heap);  // Heap buffer stolen, not copied.
}

TEST(Bytes, MoveInlinePreservesContent) {
  const std::uint8_t data[] = {7, 8, 9};
  Bytes a(data, 3);
  Bytes b = std::move(a);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data()[2], 9);
}

TEST(Bytes, TypedAccess) {
  const std::uint64_t v = 0xdeadbeefcafef00dULL;
  Bytes b = Bytes::of(v);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.as<std::uint64_t>(), v);
  EXPECT_EQ(b.as<std::uint32_t>(), 0u);  // Size mismatch yields default.
}

TEST(Bytes, ReassignShrinkGrow) {
  Bytes b;
  std::vector<std::uint8_t> big(200, 1);
  b.assign({big.data(), big.size()});
  EXPECT_EQ(b.size(), 200u);
  const std::uint8_t small[] = {2};
  b.assign({small, 1});
  EXPECT_EQ(b.size(), 1u);
  b.assign({big.data(), big.size()});
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.data()[199], 1);
}

TEST(StateStore, PartitionOfIsStableAndInRange) {
  StateStore a(16), b(16);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.partition_of(k), b.partition_of(k));
    EXPECT_LT(a.partition_of(k), 16u);
  }
}

TEST(StateStore, PartitioningSpreadsKeys) {
  StateStore s(16);
  std::vector<int> counts(16, 0);
  for (Key k = 0; k < 16000; ++k) ++counts[s.partition_of(k)];
  for (int c : counts) {
    EXPECT_GT(c, 500);
    EXPECT_LT(c, 1500);
  }
}

TEST(StateStore, GetPutEraseLocked) {
  StateStore s(4);
  const Key k = 42;
  auto& lock = s.partition_lock(s.partition_of(k));
  auto& slot = this_thread_slot();

  lock.lock_apply(&slot);
  EXPECT_FALSE(s.get_locked(k));
  s.put_locked(k, Bytes::of<std::uint64_t>(7));
  ASSERT_TRUE(s.get_locked(k));
  EXPECT_EQ(s.get_locked(k).as<std::uint64_t>(), 7u);
  // A present empty value is not an absent one.
  s.put_locked(k, Bytes{});
  ASSERT_TRUE(s.get_locked(k));
  EXPECT_EQ(s.get_locked(k).size(), 0u);
  EXPECT_TRUE(s.erase_locked(k));
  EXPECT_FALSE(s.erase_locked(k));
  EXPECT_FALSE(s.get_locked(k));
  lock.unlock();
}

TEST(StateStore, ApplyBatch) {
  StateStore s(8);
  std::vector<StateUpdate> updates;
  for (Key k = 0; k < 100; ++k) {
    updates.push_back({k, Bytes::of(k * 10), false});
  }
  apply_locked(s, updates);
  EXPECT_EQ(s.total_entries(), 100u);
  EXPECT_EQ(s.get(50)->as<Key>(), 500u);

  // Later updates overwrite, erases remove.
  std::vector<StateUpdate> second{{50, Bytes::of<Key>(1), false},
                                  {51, Bytes{}, true}};
  apply_locked(s, second);
  EXPECT_EQ(s.get(50)->as<Key>(), 1u);
  EXPECT_FALSE(s.get(51).has_value());
  EXPECT_EQ(s.total_entries(), 99u);
}

TEST(StateStore, ApplyIsAtomicAgainstConcurrentAppliers) {
  StateStore s(4);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, t] {
      for (int i = 0; i < kRounds; ++i) {
        // All threads write the same pair of keys; each thread writes its
        // own tag into both. Atomicity means a reader never sees a torn
        // pair.
        std::vector<StateUpdate> u{
            {1, Bytes::of<std::uint64_t>(static_cast<std::uint64_t>(t)), false},
            {2, Bytes::of<std::uint64_t>(static_cast<std::uint64_t>(t)), false}};
        apply_locked(s, u);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(s.get(1)->as<std::uint64_t>(), s.get(2)->as<std::uint64_t>());
}

TEST(StateStore, SerializeDeserializeRoundTrip) {
  StateStore a(16), b(16);
  std::vector<StateUpdate> updates;
  for (Key k = 0; k < 500; ++k) {
    std::vector<std::uint8_t> value(1 + (k % 90), static_cast<std::uint8_t>(k));
    updates.push_back({k * 7919, Bytes(value.data(), value.size()), false});
  }
  apply_locked(a, updates);

  std::vector<std::uint8_t> blob;
  a.serialize(blob);
  ASSERT_TRUE(b.deserialize(blob));
  EXPECT_EQ(b.total_entries(), 500u);
  for (const auto& u : updates) {
    auto v = b.get(u.key);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, u.value);
  }
}

/// The first @p n keys whose splitmix64 has all ten top bits set and
/// @p partition in its low four bits: they share a partition at any
/// partition count, and their home slot is the table's last one at every
/// capacity up to 1024, so they form one probe run that wraps past the end.
std::vector<Key> wrapping_cluster(std::size_t n, std::uint64_t partition) {
  std::vector<Key> keys;
  for (Key k = 0; keys.size() < n; ++k) {
    const std::uint64_t h = rt::splitmix64(k);
    if ((h >> 54) == 0x3ff && (h & 0xf) == partition) keys.push_back(k);
  }
  return keys;
}

TEST(StateStore, MatchesUnorderedMapOracleUnderChurn) {
  const std::vector<Key> cluster = wrapping_cluster(24, 5);
  for (const std::size_t parts : {std::size_t{1}, std::size_t{16}}) {
    SCOPED_TRACE(parts);
    StateStore s(parts);
    std::unordered_map<Key, Bytes> oracle;
    std::mt19937_64 rng(0x5eed + parts);
    // Up to 600 random keys plus the cluster: at one partition the table
    // stays within 1024 slots, so the cluster keeps wrapping; an erase in
    // it shifts entries from the front of the table back to its end.
    const auto pick_key = [&]() -> Key {
      if (rng() % 3 == 0) return cluster[rng() % cluster.size()];
      return 1'000'000 + rng() % 600;
    };
    // Inline (at most 64 bytes) and heap (more) values, both edges too.
    const auto make_value = [&]() {
      const std::size_t lens[] = {0, 8, 24, 64, 65, 100};
      std::vector<std::uint8_t> v(rng() % 2 == 0 ? lens[rng() % 6]
                                                 : rng() % 120);
      for (auto& b : v) b = static_cast<std::uint8_t>(rng());
      return Bytes(v.data(), v.size());
    };
    const auto expect_matches = [&](StateStore& store) {
      ASSERT_EQ(store.total_entries(), oracle.size());
      for (const auto& [key, value] : oracle) {
        const auto got = store.get(key);
        ASSERT_TRUE(got.has_value()) << "key " << key;
        ASSERT_EQ(*got, value) << "key " << key;
      }
    };

    for (int op = 0; op < 20'000; ++op) {
      const Key key = pick_key();
      const auto roll = rng() % 100;
      if (roll < 45) {
        Bytes value = make_value();
        apply_locked(s, std::vector<StateUpdate>{{key, value, false}});
        oracle.insert_or_assign(key, std::move(value));
      } else if (roll < 75) {
        auto& lock = s.partition_lock(s.partition_of(key));
        lock.lock_apply(&this_thread_slot());
        const bool erased = s.erase_locked(key);
        lock.unlock();
        ASSERT_EQ(erased, oracle.erase(key) == 1) << "key " << key;
      } else {
        const auto got = s.get(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(got.has_value(), it != oracle.end()) << "key " << key;
        if (got) {
          ASSERT_EQ(*got, it->second) << "key " << key;
        }
      }
      if (op % 1000 == 999) expect_matches(s);
    }
    // Whole-cluster churn: fill it, then erase it from the front, so every
    // erase shifts the rest of the wrapped run.
    for (const Key key : cluster) {
      apply_locked(s, std::vector<StateUpdate>{{key, Bytes::of(key), false}});
      oracle.insert_or_assign(key, Bytes::of(key));
    }
    for (std::size_t i = 0; i < cluster.size(); i += 2) {
      apply_locked(s, std::vector<StateUpdate>{{cluster[i], Bytes{}, true}});
      oracle.erase(cluster[i]);
      expect_matches(s);
    }

    std::vector<std::uint8_t> blob;
    s.serialize(blob);
    StateStore restored(parts);
    ASSERT_TRUE(restored.deserialize(blob));
    expect_matches(restored);
  }
}

TEST(StateStore, SlotsAreAsWideAsTheirValues) {
  // 24-byte values (a NAT record's size). A slot with a fixed 64-byte
  // inline area (a Bytes beside the key, plus its control byte) takes 89
  // bytes; a value-sized slot takes 16 + 24 + 1.
  constexpr std::size_t kFatSlot = 89;
  StateStore s(16);
  std::vector<StateUpdate> updates;
  for (Key k = 0; k < 20'000; ++k) {
    std::array<std::uint8_t, 24> value{};
    value.fill(static_cast<std::uint8_t>(k));
    updates.push_back({k, Bytes(value.data(), value.size()), false});
  }
  apply_locked(s, updates);
  ASSERT_EQ(s.total_entries(), updates.size());
  const auto entries = static_cast<double>(s.total_entries());
  const double per_entry = static_cast<double>(s.table_bytes()) / entries;
  const double fat_per_entry =
      static_cast<double>(kFatSlot * s.capacity()) / entries;
  EXPECT_LE(per_entry, fat_per_entry / 2);

  // A fetched copy is sized from the blob alone and is as lean.
  std::vector<std::uint8_t> blob;
  s.serialize(blob);
  StateStore restored(16);
  ASSERT_TRUE(restored.deserialize(blob));
  EXPECT_EQ(restored.table_bytes(), s.table_bytes());
}

TEST(StateStore, SlotWidthWidensAndSpillsAgainstOracle) {
  // One partition, so every write lands in one table: 8-byte values set
  // its width, 24 and 64 widen it in place, 200 spills to the heap; each
  // width is then overwritten with the others and erased.
  StateStore s(1);
  std::unordered_map<Key, Bytes> oracle;
  const auto value_of = [](Key key, std::size_t len) {
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i) {
      v[i] = static_cast<std::uint8_t>(key * 31 + i);
    }
    return Bytes(v.data(), v.size());
  };
  const auto put = [&](Key key, std::size_t len) {
    Bytes value = value_of(key, len);
    apply_locked(s, std::vector<StateUpdate>{{key, value, false}});
    oracle.insert_or_assign(key, std::move(value));
  };
  const auto erase = [&](Key key) {
    apply_locked(s, std::vector<StateUpdate>{{key, Bytes{}, true}});
    oracle.erase(key);
  };
  const auto expect_matches = [&] {
    ASSERT_EQ(s.total_entries(), oracle.size());
    for (const auto& [key, value] : oracle) {
      const auto got = s.get(key);
      ASSERT_TRUE(got.has_value()) << "key " << key;
      ASSERT_EQ(*got, value) << "key " << key;
    }
  };

  // Bytes per slot: a 16-byte header, the inline area and a control byte.
  const auto slot_bytes = [&] { return s.table_bytes() / s.capacity(); };
  const std::size_t lens[] = {8, 24, 64, 200};
  const std::size_t slot_for[] = {25, 41, 81, 81};
  for (std::size_t w = 0; w < 4; ++w) {
    SCOPED_TRACE(lens[w]);
    // The first value of each width overwrites an existing key, so the
    // table widens without a new key, then new keys join at that width.
    for (std::size_t prev = 0; prev < w; ++prev) {
      for (Key k = 0; k < 100; k += 5) put(prev * 1000 + k, lens[w]);
    }
    for (Key k = 0; k < 100; ++k) put(w * 1000 + k, lens[w]);
    expect_matches();
    EXPECT_EQ(slot_bytes(), slot_for[w]);
  }
  // Overwrite every key with each of the other widths, inline to heap and
  // back, then erase every other key.
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t to = 0; to < 4; ++to) {
      for (Key k = 0; k < 100; k += 3) put(w * 1000 + k, lens[to]);
      expect_matches();
    }
  }
  EXPECT_EQ(slot_bytes(), 81u);
  for (std::size_t w = 0; w < 4; ++w) {
    for (Key k = 0; k < 100; k += 2) erase(w * 1000 + k);
    expect_matches();
  }

  std::vector<std::uint8_t> blob;
  s.serialize(blob);
  StateStore restored(1);
  ASSERT_TRUE(restored.deserialize(blob));
  for (const auto& [key, value] : oracle) {
    const auto got = restored.get(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    ASSERT_EQ(*got, value) << "key " << key;
  }
}

TEST(StateStore, DeserializeRejectsHugeEntryCount) {
  // Partition 0 holds one good entry; partition 1 claims 0xFFFFFFFF
  // entries and then ends a few bytes later.
  StateStore s(2);
  Key key = 0;
  while (s.partition_of(key) != 0) ++key;
  std::vector<std::uint8_t> blob;
  const auto put = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    blob.insert(blob.end(), p, p + sizeof(v));
  };
  put(std::uint32_t{2});
  put(std::uint32_t{1});
  put(key);
  put(std::uint32_t{8});
  put(std::uint64_t{42});
  put(std::uint32_t{0xffffffff});
  put(std::uint64_t{7});
  EXPECT_FALSE(s.deserialize(blob));
  EXPECT_EQ(s.total_entries(), 0u);
  EXPECT_FALSE(s.get(key).has_value());
  // Nothing was sized from the count: only partition 0's smallest table.
  EXPECT_LE(s.capacity(), 16u);
}

TEST(StateStore, DeserializeRejectsGarbage) {
  StateStore s(8);
  std::vector<std::uint8_t> garbage(13, 0xff);
  EXPECT_FALSE(s.deserialize(garbage));
  EXPECT_EQ(s.total_entries(), 0u);
}

TEST(StateStore, DeserializeRejectsWrongPartitionCount) {
  StateStore a(8), b(16);
  apply_locked(a, std::vector<StateUpdate>{{1, Bytes::of<int>(1), false}});
  std::vector<std::uint8_t> blob;
  a.serialize(blob);
  EXPECT_FALSE(b.deserialize(blob));
}

TEST(StateStore, DeserializeRejectsTruncated) {
  StateStore a(8), b(8);
  apply_locked(a, std::vector<StateUpdate>{
                      {1, Bytes::of<std::uint64_t>(5), false}});
  std::vector<std::uint8_t> blob;
  a.serialize(blob);
  blob.resize(blob.size() - 3);
  EXPECT_FALSE(b.deserialize(blob));
}

TEST(StateStore, KeyOfNameIsStable) {
  constexpr Key k1 = key_of_name("port-count");
  constexpr Key k2 = key_of_name("port-count");
  constexpr Key k3 = key_of_name("port-counts");
  static_assert(k1 == k2);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
}

TEST(StateStore, ClearEmptiesEverything) {
  StateStore s(4);
  apply_locked(s, std::vector<StateUpdate>{{1, Bytes::of<int>(1), false},
                                           {2, Bytes::of<int>(2), false}});
  EXPECT_EQ(s.total_entries(), 2u);
  s.clear();
  EXPECT_EQ(s.total_entries(), 0u);
  EXPECT_FALSE(s.get(1).has_value());
}

}  // namespace
}  // namespace sfc::state
