// Annotated, rank-checked mutex and RAII lock wrappers.
//
// sfc::Mutex is a std::mutex plus (a) clang thread-safety capability
// annotations so -Wthread-safety can prove guarded accesses at compile
// time, and (b) a static lock rank + name feeding the runtime lock-rank
// deadlock detector (base/lock_rank.hpp) in checked builds. Release
// builds compile to exactly a std::mutex call plus two dead const
// members.
//
// sfc::LockGuard is the std::lock_guard shape; sfc::UniqueLock mirrors
// the subset of std::unique_lock the tree uses (defer_lock, try_lock,
// explicit lock/unlock) with the clang-documented scoped-capability
// annotation pattern.
#pragma once

#include <mutex>

#include "base/lock_rank.hpp"
#include "base/thread_annotations.hpp"

namespace sfc {

class SFC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name,
                 SameRank policy = SameRank::kForbid) noexcept
      : rank_(rank), policy_(policy), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SFC_ACQUIRE() {
    lockrank::check_acquire(this, rank_, name_, policy_);
    m_.lock();
    lockrank::note_held(this, rank_, name_, policy_);
  }

  bool try_lock() SFC_TRY_ACQUIRE(true) {
    // A failed try_lock cannot deadlock, so only a successful acquisition
    // is recorded (and still rank-checked: a try_lock that only succeeds
    // out of order is a latent inversion the blocking path would hit).
    if (!m_.try_lock()) return false;
    lockrank::check_acquire(this, rank_, name_, policy_);
    lockrank::note_held(this, rank_, name_, policy_);
    return true;
  }

  void unlock() SFC_RELEASE() {
    lockrank::note_release(this);
    m_.unlock();
  }

  LockRank rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

  /// TSA escape for runtime-verified holds (e.g. asserting a lock is held
  /// in a helper reached only from locked contexts).
  void assert_held() const SFC_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex m_;
  const LockRank rank_;
  const SameRank policy_;
  const char* const name_;
};

class SFC_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) SFC_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() SFC_RELEASE() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

class SFC_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) SFC_ACQUIRE(m) : m_(&m), owned_(true) {
    m_->lock();
  }
  UniqueLock(Mutex& m, std::defer_lock_t) SFC_EXCLUDES(m)
      : m_(&m), owned_(false) {}
  ~UniqueLock() SFC_RELEASE() {
    if (owned_) m_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() SFC_ACQUIRE() {
    m_->lock();
    owned_ = true;
  }

  bool try_lock() SFC_TRY_ACQUIRE(true) {
    owned_ = m_->try_lock();
    return owned_;
  }

  void unlock() SFC_RELEASE() {
    m_->unlock();
    owned_ = false;
  }

  bool owns_lock() const noexcept { return owned_; }

 private:
  Mutex* m_;
  bool owned_;
};

}  // namespace sfc
