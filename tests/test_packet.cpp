// Tests for the packet substrate: buffers, pool, headers, parsing,
// building, NAT-style rewriting.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "packet/flow.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"
#include "packet/packet_io.hpp"
#include "packet/packet_pool.hpp"

namespace sfc::pkt {
namespace {

FlowKey test_flow() {
  return FlowKey{0x0a000001, 0x08080808, 12345, 80, Ipv4Header::kProtoUdp};
}

TEST(Packet, FreshPacketHasHeadroomAndTailroom) {
  Packet p;
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.headroom(), Packet::kDefaultHeadroom);
  EXPECT_EQ(p.tailroom(), Packet::kCapacity - Packet::kDefaultHeadroom);
}

TEST(Packet, PushPullFrontBack) {
  Packet p;
  const std::uint8_t payload[] = {1, 2, 3, 4};
  p.assign(payload);
  EXPECT_EQ(p.size(), 4u);

  auto* front = p.push_front(2);
  front[0] = 9;
  front[1] = 8;
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.data()[0], 9);
  EXPECT_EQ(p.data()[2], 1);

  p.pull_front(2);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.data()[0], 1);

  auto* tail = p.push_back(2);
  tail[0] = 7;
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.data()[4], 7);
  p.trim_back(2);
  EXPECT_EQ(p.size(), 4u);
}

TEST(Packet, CloneCopiesDataAndAnnotations) {
  Packet a, b;
  const std::uint8_t payload[] = {5, 6, 7};
  a.assign(payload);
  a.anno().packet_id = 99;
  a.anno().ingress_ns = 123;
  a.clone_into(b);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.data()[1], 6);
  EXPECT_EQ(b.anno().packet_id, 99u);
  EXPECT_EQ(b.anno().ingress_ns, 123u);
}

TEST(PacketPool, AllocFreeCycle) {
  PacketPool pool(4);
  EXPECT_EQ(pool.available_approx(), 4u);
  std::vector<Packet*> held;
  for (int i = 0; i < 4; ++i) {
    Packet* p = pool.alloc_raw();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(pool.owns(p));
    held.push_back(p);
  }
  EXPECT_EQ(pool.alloc_raw(), nullptr);  // Exhausted -> back-pressure.
  pool.free_raw(held.back());
  held.pop_back();
  EXPECT_NE(pool.alloc_raw(), nullptr);
  for (auto* p : held) pool.free_raw(p);
}

TEST(PacketPool, ReusedPacketIsReset) {
  PacketPool pool(1);
  Packet* p = pool.alloc_raw();
  p->push_back(100);
  p->anno().packet_id = 7;
  pool.free_raw(p);
  Packet* q = pool.alloc_raw();
  EXPECT_EQ(q, p);
  EXPECT_EQ(q->size(), 0u);
  EXPECT_EQ(q->anno().packet_id, 0u);
  pool.free_raw(q);
}

TEST(PacketPool, RaiiPtrReturnsToPool) {
  PacketPool pool(2);
  {
    PacketPtr p = pool.alloc();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(pool.available_approx(), 1u);
  }
  EXPECT_EQ(pool.available_approx(), 2u);
}

TEST(Headers, ByteOrderHelpers) {
  EXPECT_EQ(hton16(0x1234), 0x3412);
  EXPECT_EQ(ntoh16(hton16(0xabcd)), 0xabcd);
  EXPECT_EQ(hton32(0x12345678u), 0x78563412u);
  EXPECT_EQ(ntoh32(hton32(0xdeadbeefu)), 0xdeadbeefu);
}

TEST(Headers, InternetChecksumKnownVector) {
  // Classic RFC 1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t sum = internet_checksum(data, sizeof(data));
  // Verify by checking that including the checksum yields zero.
  std::uint8_t with_sum[10];
  std::memcpy(with_sum, data, 8);
  std::memcpy(with_sum + 8, &sum, 2);
  EXPECT_EQ(internet_checksum(with_sum, 10), 0);
}

TEST(Headers, ChecksumOddLength) {
  const std::uint8_t data[] = {0xab, 0xcd, 0xef};
  const std::uint16_t sum = internet_checksum(data, 3);
  std::uint8_t padded[4] = {0xab, 0xcd, 0xef, 0x00};
  std::uint16_t expect = internet_checksum(padded, 4);
  EXPECT_EQ(sum, expect);
}

TEST(Headers, FormatIpv4) {
  char buf[16];
  format_ipv4(0x0a000001, buf);
  EXPECT_STREQ(buf, "10.0.0.1");
  format_ipv4(0xffffffff, buf);
  EXPECT_STREQ(buf, "255.255.255.255");
}

TEST(Flow, EqualityAndReversal) {
  const FlowKey f = test_flow();
  EXPECT_EQ(f, f);
  const FlowKey r = f.reversed();
  EXPECT_EQ(r.src_ip, f.dst_ip);
  EXPECT_EQ(r.dst_port, f.src_port);
  EXPECT_EQ(r.reversed(), f);
  EXPECT_NE(f.hash(), r.hash());  // Direction-sensitive.
}

TEST(Flow, HashSpreads) {
  std::vector<std::uint64_t> hashes;
  for (std::uint16_t port = 1000; port < 2000; ++port) {
    FlowKey f = test_flow();
    f.src_port = port;
    hashes.push_back(f.hash());
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
}

TEST(PacketIo, BuildAndParseUdp) {
  Packet p;
  PacketBuilder(p).udp(test_flow(), 256);
  EXPECT_EQ(p.size(), 256u);

  auto parsed = parse_packet(p);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow, test_flow());
  ASSERT_NE(parsed->udp, nullptr);
  EXPECT_EQ(parsed->tcp, nullptr);
  EXPECT_TRUE(verify_ipv4_checksum(*parsed->ip));
  EXPECT_EQ(parsed->ip->total_length(), 256 - EthernetHeader::kSize);
  EXPECT_EQ(p.anno().l3_offset, EthernetHeader::kSize);
  EXPECT_EQ(p.anno().l4_offset, EthernetHeader::kSize + Ipv4Header::kSize);
}

TEST(PacketIo, BuildAndParseTcp) {
  Packet p;
  FlowKey f = test_flow();
  f.protocol = Ipv4Header::kProtoTcp;
  PacketBuilder(p).tcp(f, 128, TcpHeader::kFlagSyn);
  auto parsed = parse_packet(p);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->tcp, nullptr);
  EXPECT_EQ(parsed->tcp->flags, TcpHeader::kFlagSyn);
  EXPECT_EQ(parsed->flow, f);
}

TEST(PacketIo, ParseRejectsTruncated) {
  Packet p;
  p.push_back(10);
  EXPECT_FALSE(parse_packet(p).has_value());
}

TEST(PacketIo, ParseRejectsNonIpv4) {
  Packet p;
  PacketBuilder(p).udp(test_flow(), 100);
  reinterpret_cast<EthernetHeader*>(p.data())->set_ether_type(0x0806);  // ARP.
  EXPECT_FALSE(parse_packet(p).has_value());
}

TEST(PacketIo, WireLenHidesTrailer) {
  Packet p;
  PacketBuilder(p).udp(test_flow(), 128);
  // Simulate an appended piggyback message. Trailer bytes beyond the IP
  // total length are ignored (like Ethernet padding), whether we parse the
  // whole buffer or restrict to the wire length.
  auto* tail = p.push_back(64);
  std::memset(tail, 0xee, 64);
  for (auto parsed : {parse_packet(p), parse_packet(p, 128)}) {
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->flow, test_flow());
    EXPECT_EQ(parsed->payload_len, 128u - EthernetHeader::kSize -
                                       Ipv4Header::kSize - UdpHeader::kSize);
  }
}

TEST(PacketIo, RewriteFlowUpdatesChecksumAndPorts) {
  Packet p;
  PacketBuilder(p).udp(test_flow(), 200);
  auto parsed = parse_packet(p);
  ASSERT_TRUE(parsed.has_value());

  FlowKey ext{0xc0a80001, 0x08080808, 40000, 80, Ipv4Header::kProtoUdp};
  rewrite_flow(*parsed, ext);
  EXPECT_TRUE(verify_ipv4_checksum(*parsed->ip));

  auto reparsed = parse_packet(p);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->flow, ext);
}

TEST(PacketIo, PayloadLengthMatchesBuild) {
  Packet p;
  PacketBuilder(p).udp(test_flow(), 256);
  auto parsed = parse_packet(p);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_len, 256u - EthernetHeader::kSize -
                                     Ipv4Header::kSize - UdpHeader::kSize);
}

// Sweep frame sizes the paper uses (128/256/512) plus the minimum.
class PacketSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PacketSizeSweep, BuildParseRoundTrip) {
  Packet p;
  PacketBuilder(p).udp(test_flow(), GetParam());
  auto parsed = parse_packet(p);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow, test_flow());
  EXPECT_TRUE(verify_ipv4_checksum(*parsed->ip));
}

INSTANTIATE_TEST_SUITE_P(FrameSizes, PacketSizeSweep,
                         ::testing::Values(64, 128, 256, 512, 1024, 1500));

TEST(PacketPool, ConcurrentAllocFree) {
  PacketPool pool(256);
  constexpr int kThreads = 4;
  constexpr int kRounds = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        Packet* p = pool.alloc_raw();
        if (p != nullptr) pool.free_raw(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.available_approx(), 256u);
}

// --- Lazy slab: packets are constructed the first time they are handed
// out, so a pool costs nothing per packet until it is used. ---

/// Resident set size of this process in kB, from /proc/self/status.
std::size_t rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST(PacketPool, FreshPoolReportsEveryPacketAvailable) {
  PacketPool pool(8192);
  EXPECT_EQ(pool.carved(), 0u);
  EXPECT_EQ(pool.available_approx(), pool.capacity());
}

TEST(PacketPool, ConcurrentExhaustionHandsOutEveryPacketOnce) {
  constexpr std::size_t kCapacity = 4096;
  constexpr int kThreads = 4;
  PacketPool pool(kCapacity);
  std::vector<std::vector<Packet*>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &mine = got[t]] {
      while (Packet* p = pool.alloc_raw()) mine.push_back(p);
    });
  }
  for (auto& t : threads) t.join();

  std::set<Packet*> distinct;
  for (const auto& mine : got) {
    for (Packet* p : mine) {
      distinct.insert(p);
      ASSERT_TRUE(pool.owns(p));
      EXPECT_EQ(p->size(), 0u);
      EXPECT_EQ(p->headroom(), Packet::kDefaultHeadroom);
      const Annotations& a = p->anno();
      EXPECT_EQ(a.ingress_ns, 0u);
      EXPECT_EQ(a.packet_id, 0u);
      EXPECT_EQ(a.trace_id, 0u);
      EXPECT_EQ(a.flow_hash, 0u);
      EXPECT_EQ(a.l3_offset, 0u);
      EXPECT_EQ(a.l4_offset, 0u);
      EXPECT_EQ(a.payload_offset, 0u);
      EXPECT_EQ(a.aux, 0u);
      EXPECT_EQ(a.tseq, 0u);
      EXPECT_FALSE(a.is_control);
    }
  }
  EXPECT_EQ(distinct.size(), kCapacity);
  EXPECT_EQ(pool.carved(), kCapacity);
  EXPECT_EQ(pool.alloc_raw(), nullptr);
  for (Packet* p : distinct) pool.free_raw(p);
  EXPECT_EQ(pool.available_approx(), kCapacity);
}

TEST(PacketPool, ConstructionLeavesTheSlabUntouched) {
  // 8192 packets are ~35 MB of slab; none of it may be faulted in before
  // a packet is handed out.
  const std::size_t before = rss_kb();
  ASSERT_NE(before, 0u) << "no VmRSS in /proc/self/status";
  PacketPool pool(8192);
  const std::size_t after = rss_kb();
  EXPECT_LT(after - std::min(after, before), 4u * 1024)
      << "RSS grew from " << before << " kB to " << after << " kB";
}

TEST(PacketPool, IdleChainCarvesNoDataPackets) {
  ftc::ChainRuntime::Spec spec;
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  ftc::ChainRuntime chain(spec);
  chain.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(chain.pool().carved(), 0u);
  bool exported = false;
  for (const auto& sample : chain.registry().snapshot()) {
    if (sample.name != "pool.carved") continue;
    if (sample.labels != obs::Labels{{"pool", "data"}}) continue;
    exported = true;
    EXPECT_EQ(sample.value, 0.0);
  }
  EXPECT_TRUE(exported) << "pool.carved{pool=data} not in the registry";
  chain.stop();
}

}  // namespace
}  // namespace sfc::pkt
