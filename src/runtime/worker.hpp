// Worker thread wrapper.
//
// Every simulated server component (middlebox thread, link pump, failure
// detector) is a Worker: a named thread running a poll loop until asked to
// stop. The loop body returns whether it made progress so the worker can
// back off (cpu_relax -> yield -> after 1 ms idle, 20 us naps) when idle
// instead of burning a core.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "runtime/common.hpp"

namespace sfc::rt {

/// Name of the Worker driving the calling thread, or "" on non-Worker
/// threads (main, tests). Observability code uses it to label per-thread
/// resources (span rings, budget profiler slots) by worker.
std::string_view current_worker_name() noexcept;

/// Shard identity of the calling thread within its node: data-path workers
/// carry their worker index (set by the node's burst loop), every other
/// thread reads kNoShard. The shard-affine state layer uses it to pick the
/// handoff-ring producer row and to decide partition ownership.
inline constexpr std::uint32_t kNoShard = 0xffffffffu;
std::uint32_t current_shard() noexcept;
void set_current_shard(std::uint32_t shard) noexcept;

/// True when the Worker driving the calling thread has been asked to stop
/// (always false on non-Worker threads). Waits that block a worker on a
/// peer — a full port, a full feedback channel — poll it and give up, so
/// stop() never waits behind a peer that no longer consumes.
bool stop_requested() noexcept;

class Worker : NonCopyable {
 public:
  /// @param body Called repeatedly; returns true if it did useful work.
  ///             A false return lets the worker back off briefly.
  Worker() = default;
  Worker(std::string name, std::function<bool()> body) { start(std::move(name), std::move(body)); }
  ~Worker() { stop(); }

  Worker(Worker&&) = delete;
  Worker& operator=(Worker&&) = delete;

  void start(std::string name, std::function<bool()> body);

  /// Requests the loop to exit and joins the thread. Idempotent.
  void stop();

  bool running() const noexcept { return thread_.joinable(); }
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<bool> stop_flag_{false};
  std::thread thread_;
};

/// Runs @p body in a loop with idle backoff until @p stop becomes true.
void poll_loop(const std::atomic<bool>& stop, const std::function<bool()>& body);

}  // namespace sfc::rt
