// Test synchronization: poll a condition until it holds or a deadline
// passes, instead of sleeping for a fixed time and hoping.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/clock.hpp"

namespace sfc::test {

/// Polls @p pred every @p poll until its result converts to true or
/// @p timeout elapses. Returns the observation that ended the wait, so
/// callers assert that one rather than a second, racing read. A result
/// richer than bool can say what never held:
///   const auto q = wait_until([&] { return chain.quiescent(); }, 15s);
///   ASSERT_TRUE(q) << q.to_string();
template <typename Pred>
auto wait_until(Pred&& pred, std::chrono::milliseconds timeout,
                std::chrono::microseconds poll = std::chrono::milliseconds(1)) {
  const std::uint64_t deadline =
      rt::now_ns() + static_cast<std::uint64_t>(
                         std::chrono::nanoseconds(timeout).count());
  for (;;) {
    auto seen = pred();
    if (seen || rt::now_ns() >= deadline) return seen;
    std::this_thread::sleep_for(poll);
  }
}

}  // namespace sfc::test
