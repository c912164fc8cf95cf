// Runtime lock-rank (lock-ordering) deadlock detector.
//
// Every sfc::Mutex (and the state-layer PartitionLock) carries a static
// rank. The discipline: a thread may only block on a lock whose rank is
// strictly LOWER than every lock it already holds — outer locks have
// higher ranks, leaves the lowest. Any acquisition that violates the
// order, and any recursive acquisition of the same lock, aborts
// immediately with both lock names and the full held stack, turning a
// would-be deadlock (which TSan only sees if both arms race in one run)
// into a deterministic test failure.
//
// The one sanctioned exception is the wound-wait partition lock: packet
// transactions acquire partition locks in arbitrary key order and rely on
// wounding for deadlock freedom (paper §4.2), so same-rank nesting is
// allowed when BOTH locks opt into SameRank::kWoundWait.
//
// Checks compile in only when SFC_LOCK_RANK_CHECKS is defined non-zero
// (CMake: on for every build type except Release, so tier-1 tests at
// RelWithDebInfo exercise the detector while the Release budget gate pays
// nothing).
//
// The rank table. Higher value = acquired earlier (outer). Derived from
// the actual nestings in the tree, e.g. Registry::snapshot runs gauge
// callbacks that take node-level locks, so the registry outranks them;
// the egress buffer flushes into a Link/ReliableChannel under its own
// lock, so node outranks transport outranks link; the applier's MAX
// mutex is held across StateStore partition application.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sfc {

using LockRank = std::uint16_t;

namespace ranks {
// clang-format off
inline constexpr LockRank kSeqlockWrite = 2;    ///< shard-affine store seqlock write section: may block on NOTHING (even logging), so the window stays a handful of stores.
inline constexpr LockRank kLogging      = 5;    ///< runtime log write mutex: anything may log.
inline constexpr LockRank kProfViolation= 8;    ///< prof violation records (fires under partition locks).
inline constexpr LockRank kProfRegister = 12;   ///< prof slot registration (first touch under partition locks).
inline constexpr LockRank kSpanRegister = 15;   ///< span ring registration (first record under node locks).
inline constexpr LockRank kLeaf         = 20;   ///< self-contained leaves: histograms, traces, pcap, log history.
inline constexpr LockRank kPartition    = 30;   ///< state::PartitionLock (wound-wait).
inline constexpr LockRank kLink         = 50;   ///< net::Link timed queue.
inline constexpr LockRank kTransport    = 60;   ///< net::ReliableChannel window (drives its Link under lock).
inline constexpr LockRank kControl      = 70;   ///< net::ControlPlane inboxes.
inline constexpr LockRank kNode         = 80;   ///< FtcNode park state, EgressBuffer (flushes into ports).
inline constexpr LockRank kObs          = 90;   ///< obs::Registry (snapshot runs node-lock-taking callbacks).
inline constexpr LockRank kSpanDrain    = 95;   ///< span drain side (registers ring gauges into the registry).
inline constexpr LockRank kOrch         = 100;  ///< orchestrator recovery serialization (outermost).
// clang-format on
}  // namespace ranks

/// Same-rank nesting policy. kForbid is the default for std-mutex-backed
/// locks; kWoundWait is reserved for the partition lock family, whose
/// deadlock freedom comes from wounding, not ordering.
enum class SameRank : std::uint8_t { kForbid, kWoundWait };

namespace lockrank {

namespace detail {
void check_acquire_impl(const void* lock, LockRank rank, const char* name,
                        SameRank policy) noexcept;
void note_held_impl(const void* lock, LockRank rank, const char* name,
                    SameRank policy) noexcept;
void note_release_impl(const void* lock) noexcept;
std::size_t held_depth_impl() noexcept;
}  // namespace detail

/// Validates that acquiring @p lock now respects the rank order given
/// what this thread already holds; aborts with a diagnostic naming both
/// locks otherwise. Call BEFORE blocking on the lock.
inline void check_acquire([[maybe_unused]] const void* lock,
                          [[maybe_unused]] LockRank rank,
                          [[maybe_unused]] const char* name,
                          [[maybe_unused]] SameRank policy =
                              SameRank::kForbid) noexcept {
#if SFC_LOCK_RANK_CHECKS
  detail::check_acquire_impl(lock, rank, name, policy);
#endif
}

/// Records @p lock on this thread's held stack. Call AFTER the lock is
/// actually acquired (so a failed try_lock or a wounded partition
/// acquisition records nothing).
inline void note_held([[maybe_unused]] const void* lock,
                      [[maybe_unused]] LockRank rank,
                      [[maybe_unused]] const char* name,
                      [[maybe_unused]] SameRank policy =
                          SameRank::kForbid) noexcept {
#if SFC_LOCK_RANK_CHECKS
  detail::note_held_impl(lock, rank, name, policy);
#endif
}

/// Removes @p lock from this thread's held stack (release order need not
/// be LIFO: StateStore releases partition locks in index order).
inline void note_release([[maybe_unused]] const void* lock) noexcept {
#if SFC_LOCK_RANK_CHECKS
  detail::note_release_impl(lock);
#endif
}

/// Number of ranked locks the calling thread currently holds (test hook).
inline std::size_t held_depth() noexcept {
#if SFC_LOCK_RANK_CHECKS
  return detail::held_depth_impl();
#else
  return 0;
#endif
}

/// Whether rank checking is compiled into this build (test hook).
inline constexpr bool enabled() noexcept {
#if SFC_LOCK_RANK_CHECKS
  return true;
#else
  return false;
#endif
}

}  // namespace lockrank
}  // namespace sfc
