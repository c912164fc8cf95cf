#include "runtime/worker.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "runtime/clock.hpp"

namespace sfc::rt {

namespace {
/// How long a worker stays idle before its backoff naps instead of
/// yielding: far longer than the gaps of any traffic it serves, so only
/// a worker with nothing to do naps.
constexpr std::uint64_t kNapAfterNs = 1'000'000;
/// One nap (the timer slack, 50 us by default, comes on top).
constexpr auto kNap = std::chrono::microseconds(20);

thread_local std::string t_worker_name;
thread_local std::uint32_t t_shard = kNoShard;
thread_local const std::atomic<bool>* t_stop_flag = nullptr;
}

std::string_view current_worker_name() noexcept { return t_worker_name; }

std::uint32_t current_shard() noexcept { return t_shard; }

void set_current_shard(std::uint32_t shard) noexcept { t_shard = shard; }

bool stop_requested() noexcept {
  return t_stop_flag != nullptr && t_stop_flag->load(std::memory_order_acquire);
}

void poll_loop(const std::atomic<bool>& stop, const std::function<bool()>& body) {
  unsigned idle_spins = 0;
  std::uint64_t idle_since_ns = 0;
  while (!stop.load(std::memory_order_acquire)) {
    if (body()) {
      idle_spins = 0;
      continue;
    }
    // Idle backoff: spin briefly to stay hot for bursty traffic, then
    // yield so an oversubscribed simulation still makes progress, and
    // once idle for kNapAfterNs, nap. A thread that only yields gets back
    // a core it shares with one that never yields at the next scheduler
    // tick (4 ms at 250 Hz); one that sleeps is woken on time, preempting
    // the other, or is placed on an idle core.
    if (++idle_spins < 64) {
      cpu_relax();
      continue;
    }
    const std::uint64_t now = now_ns();
    if (idle_spins == 64) idle_since_ns = now;
    if (now - idle_since_ns < kNapAfterNs) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kNap);
    }
    if (idle_spins > 4096) idle_spins = 65;  // Avoid counter overflow.
  }
}

void Worker::start(std::string name, std::function<bool()> body) {
  stop();
  name_ = std::move(name);
  stop_flag_.store(false);
  thread_ = std::thread([this, name = name_, body = std::move(body)]() mutable {
    t_worker_name = std::move(name);
    t_stop_flag = &stop_flag_;
    poll_loop(stop_flag_, body);
  });
}

void Worker::stop() {
  if (!thread_.joinable()) return;
  stop_flag_.store(true, std::memory_order_release);
  thread_.join();
}

}  // namespace sfc::rt
