// Runtime allocation guard for the steady-state data path.
//
// The static hot-path lint (tools/lint_hot_path.py) sees `new` and
// `malloc` in the source, but not the allocations a std::deque or a
// std::vector makes inside the standard library. This test counts them
// where they happen: it replaces the global operator new for its whole
// process, which is why it is an executable of its own, and counts the
// calls made on the chain's data workers (threads named ftc-node-*).
//
// It drives a Monitor x3 chain (f=1, one worker per node, burst 32) in a
// closed loop with 1024 packets outstanding, the shape of the benchmark's
// monitor-closed workload, and after a warm-up requires at most 0.1
// allocations per delivered packet.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>
#include <thread>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"
#include "runtime/worker.hpp"

namespace {

std::atomic<std::uint64_t> g_data_worker_allocs{0};

void count_if_data_worker() noexcept {
  if (sfc::rt::current_worker_name().starts_with("ftc-node-")) {
    g_data_worker_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  count_if_data_worker();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_if_data_worker();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_if_data_worker();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_if_data_worker();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace sfc::ftc {
namespace {

constexpr std::size_t kWindow = 1024;
constexpr std::size_t kSendBurst = 32;
constexpr std::size_t kFlows = 64;
constexpr std::uint64_t kWarmupPackets = 50'000;
constexpr std::uint64_t kMeasuredPackets = 200'000;
constexpr double kMaxAllocsPerPacket = 0.1;

/// Closed-loop driver: keeps kWindow packets in the chain and counts what
/// leaves it.
class ClosedLoop {
 public:
  explicit ClosedLoop(ChainRuntime& chain) : chain_(chain) {}

  /// Runs until at least @p packets more have been delivered or
  /// @p timeout_ns passes. Returns how many were delivered.
  std::uint64_t run(std::uint64_t packets, std::uint64_t timeout_ns) {
    const std::uint64_t target = delivered_ + packets;
    const std::uint64_t deadline = rt::now_ns() + timeout_ns;
    while (delivered_ < target && rt::now_ns() < deadline) {
      top_up();
      pkt::Packet* out[256];
      const std::size_t n = chain_.egress().poll_burst(out, 256);
      for (std::size_t i = 0; i < n; ++i) chain_.pool().free_raw(out[i]);
      delivered_ += n;
      outstanding_ -= n;
      if (n == 0) std::this_thread::yield();
    }
    return delivered_ - (target - packets);
  }

  /// Lets the window drain so the chain stops with nothing in flight.
  void drain(std::uint64_t timeout_ns) {
    const std::uint64_t deadline = rt::now_ns() + timeout_ns;
    while (outstanding_ != 0 && rt::now_ns() < deadline) {
      pkt::Packet* out[256];
      const std::size_t n = chain_.egress().poll_burst(out, 256);
      for (std::size_t i = 0; i < n; ++i) chain_.pool().free_raw(out[i]);
      outstanding_ -= n;
      if (n == 0) std::this_thread::yield();
    }
  }

 private:
  void top_up() {
    while (outstanding_ < kWindow) {
      pkt::Packet* burst[kSendBurst];
      const std::size_t want = std::min(kSendBurst, kWindow - outstanding_);
      std::size_t n = 0;
      for (; n < want; ++n) {
        pkt::Packet* p = chain_.pool().alloc_raw();
        if (p == nullptr) break;
        const auto flow = static_cast<std::uint16_t>(next_id_ % kFlows);
        pkt::PacketBuilder(*p).udp(
            pkt::FlowKey{0x0a000001, 0x0a000002,
                         static_cast<std::uint16_t>(1000 + flow), 80,
                         pkt::Ipv4Header::kProtoUdp},
            64);
        p->anno().packet_id = ++next_id_;
        burst[n] = p;
      }
      if (n == 0) return;
      const std::size_t sent = chain_.ingress().send_burst({burst, n});
      for (std::size_t i = sent; i < n; ++i) chain_.pool().free_raw(burst[i]);
      outstanding_ += sent;
      if (sent < n) return;  // Ingress full: drain first.
    }
  }

  ChainRuntime& chain_;
  std::size_t outstanding_{0};
  std::uint64_t delivered_{0};
  std::uint64_t next_id_{0};
};

TEST(AllocationGuard, DataWorkersMakeNoHeapAllocationPerPacket) {
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.burst_size = 32;
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  ChainRuntime chain(spec);
  chain.start();
  ClosedLoop loop(chain);

  constexpr std::uint64_t kTimeoutNs = 120'000'000'000;
  ASSERT_GE(loop.run(kWarmupPackets, kTimeoutNs), kWarmupPackets)
      << "the chain stalled during warm-up";
  const std::uint64_t before = g_data_worker_allocs.load();
  const std::uint64_t delivered = loop.run(kMeasuredPackets, kTimeoutNs);
  const std::uint64_t allocs = g_data_worker_allocs.load() - before;
  loop.drain(10'000'000'000);
  chain.stop();

  ASSERT_GE(delivered, kMeasuredPackets) << "the chain stalled";
  const double per_packet =
      static_cast<double>(allocs) / static_cast<double>(delivered);
  RecordProperty("allocs", static_cast<int>(allocs));
  EXPECT_LE(per_packet, kMaxAllocsPerPacket)
      << allocs << " heap allocations on the data workers over " << delivered
      << " delivered packets";
  std::printf("data workers: %llu allocations over %llu packets (%.4f/packet)\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(delivered), per_packet);
}

}  // namespace
}  // namespace sfc::ftc
