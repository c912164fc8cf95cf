#include "runtime/worker.hpp"

#include <utility>

namespace sfc::rt {

namespace {
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
  while (!stop.load(std::memory_order_acquire)) {
    if (body()) {
      idle_spins = 0;
      continue;
    }
    // Idle backoff: spin briefly to stay hot for bursty traffic, then
    // yield so an oversubscribed simulation still makes progress.
    if (++idle_spins < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
      if (idle_spins > 4096) idle_spins = 64;  // Avoid counter overflow.
    }
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
