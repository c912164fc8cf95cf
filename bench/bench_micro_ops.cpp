// Micro-benchmarks of the primitives on FTC's per-packet path, using
// google-benchmark. Not a paper figure; supports Table 2's interpretation
// by costing each building block in isolation.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "core/config.hpp"
#include "core/piggyback.hpp"
#include "obs/export.hpp"
#include "core/stores.hpp"
#include "mbox/nat.hpp"
#include "net/link.hpp"
#include "packet/packet_io.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/worker.hpp"
#include "state/shard_map.hpp"
#include "state/txn.hpp"

namespace {

using namespace sfc;

// Data-path burst size for the link send/poll benchmark; set by --burst
// (the CI bench-smoke job runs --burst 1 vs --burst 32 and compares).
std::size_t g_burst = 32;

void BM_SpscQueuePushPop(benchmark::State& state) {
  rt::SpscQueue<std::uint64_t> q(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.try_push(v++);
    benchmark::DoNotOptimize(q.try_pop());
  }
}
BENCHMARK(BM_SpscQueuePushPop);

void BM_MpmcQueuePushPop(benchmark::State& state) {
  rt::MpmcQueue<std::uint64_t> q(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.try_push(v++);
    benchmark::DoNotOptimize(q.try_pop());
  }
}
BENCHMARK(BM_MpmcQueuePushPop);

void BM_MpmcQueueBulkPushPop(benchmark::State& state) {
  // Per-burst cost of the bulk queue ops (one CAS per burst): the sweep
  // over 1/8/32/128 shows the amortization the data path relies on.
  const auto burst = static_cast<std::size_t>(state.range(0));
  rt::MpmcQueue<std::uint64_t> q(1024);
  std::vector<std::uint64_t> in(burst), out(burst);
  std::iota(in.begin(), in.end(), 0);
  for (auto _ : state) {
    q.try_push_n({in.data(), burst});
    benchmark::DoNotOptimize(q.try_pop_n(out.data(), burst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_MpmcQueueBulkPushPop)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_LinkBurstSendPoll(benchmark::State& state) {
  // Fast-path link traversal cost per burst (queue reservation + counter
  // updates). Registered with the --burst flag's value so CI can compare
  // runs at different burst sizes by name.
  const auto burst = static_cast<std::size_t>(state.range(0));
  pkt::PacketPool pool(1024);
  net::Link link(pool, net::LinkConfig{});
  const pkt::FlowKey flow{0x0a000001, 0x08080808, 1234, 80,
                          pkt::Ipv4Header::kProtoUdp};
  std::vector<pkt::Packet*> pkts(burst);
  for (auto& p : pkts) {
    p = pool.alloc_raw();
    pkt::PacketBuilder(*p).udp(flow, 256);
  }
  for (auto _ : state) {
    link.send_burst({pkts.data(), burst});
    // The pop returns the same pointers in order; reuse them next round.
    benchmark::DoNotOptimize(link.poll_burst(pkts.data(), burst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst));
  for (auto* p : pkts) pool.free_raw(p);
}

void BM_PacketBuildParse(benchmark::State& state) {
  pkt::Packet p;
  const pkt::FlowKey flow{0x0a000001, 0x08080808, 1234, 80,
                          pkt::Ipv4Header::kProtoUdp};
  for (auto _ : state) {
    pkt::PacketBuilder(p).udp(flow, 256);
    benchmark::DoNotOptimize(pkt::parse_packet(p));
  }
}
BENCHMARK(BM_PacketBuildParse);

void BM_TxnReadOnly(benchmark::State& state) {
  state::StateStore store(16);
  state::TxnContext ctx(store);
  state::run_transaction(ctx, [](state::Txn& t) {
    t.write(7, state::Bytes::of<std::uint64_t>(1));
  });
  for (auto _ : state) {
    auto rec = state::run_transaction(ctx, [](state::Txn& t) {
      benchmark::DoNotOptimize(t.read(7));
    });
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_TxnReadOnly);

void BM_TxnCounterIncrement(benchmark::State& state) {
  state::StateStore store(16);
  state::TxnContext ctx(store);
  for (auto _ : state) {
    auto rec = state::run_transaction(
        ctx, [](state::Txn& t) { t.fetch_add(7, 1); });
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_TxnCounterIncrement);

void BM_HeadCommit(benchmark::State& state) {
  // The head's per-packet path at threads_per_node == 1: a Monitor-style
  // counter transaction on the single-writer fast path, its log encoded
  // once, recorded in the history and appended onto the packet's message.
  ftc::ChainConfig cfg;
  ftc::HeadStore head(0, cfg);
  head.enable_shard_affine();
  pkt::Packet p;
  ftc::PiggybackView v = ftc::PiggybackView::create(p, cfg.num_partitions);
  ftc::MaxVector commit;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto record = state::run_transaction(
        head.txn_ctx(), [](state::Txn& t) { t.fetch_add(7, 1); });
    ftc::LogRecordBuffer buf;
    benchmark::DoNotOptimize(v.append_wire_log(head.record_log(record, buf)));
    v.strip_logs_of(0);
    // The tail's commits keep the history at its in-flight window.
    commit.seq = record.seqs;
    if ((++n & 255) == 0) head.prune(commit);
  }
}
BENCHMARK(BM_HeadCommit);

void BM_PiggybackAppendExtract(benchmark::State& state) {
  const auto value_size = static_cast<std::size_t>(state.range(0));
  pkt::Packet p;
  const pkt::FlowKey flow{0x0a000001, 0x08080808, 1234, 80,
                          pkt::Ipv4Header::kProtoUdp};
  pkt::PacketBuilder(p).udp(flow, 256);

  ftc::PiggybackMessage msg;
  ftc::PiggybackLog log;
  log.mbox = 1;
  log.dep.mask = 1;
  log.dep.seq[0] = 42;
  std::vector<std::uint8_t> value(value_size, 0xab);
  log.writes.push_back({7, state::Bytes(value.data(), value.size()), false});
  msg.logs.push_back(log);

  for (auto _ : state) {
    ftc::append_message(p, msg, 16);
    benchmark::DoNotOptimize(ftc::extract_message(p));
  }
}
BENCHMARK(BM_PiggybackAppendExtract)->Arg(32)->Arg(128)->Arg(256);

// A representative per-node piggyback workload: n_logs single-write logs
// (value_size bytes each) plus one commit vector, riding a 256 B UDP
// packet. Used by the materialize-vs-view pair below.
ftc::PiggybackMessage make_bench_message(std::size_t n_logs,
                                         std::size_t value_size,
                                         std::vector<std::uint8_t>& value) {
  value.assign(value_size, 0xab);
  ftc::PiggybackMessage msg;
  for (std::size_t i = 0; i < n_logs; ++i) {
    ftc::PiggybackLog log;
    log.mbox = static_cast<ftc::MboxId>(i);
    log.dep.mask = 1;
    log.dep.seq[0] = i + 1;
    log.writes.push_back(
        {7 + i, state::Bytes(value.data(), value.size()), false});
    msg.logs.push_back(std::move(log));
  }
  ftc::MaxVector max;
  max.seq[0] = 41;
  msg.set_commit(0, max);
  return msg;
}

void BM_PiggybackMaterialize(benchmark::State& state) {
  // Legacy per-node tail handling: deserialize the whole message into
  // owning structures, touch it (commit update), serialize it back.
  const auto n_logs = static_cast<std::size_t>(state.range(0));
  const auto value_size = static_cast<std::size_t>(state.range(1));
  pkt::Packet p;
  const pkt::FlowKey flow{0x0a000001, 0x08080808, 1234, 80,
                          pkt::Ipv4Header::kProtoUdp};
  pkt::PacketBuilder(p).udp(flow, 256);
  std::vector<std::uint8_t> value;
  ftc::append_message(p, make_bench_message(n_logs, value_size, value), 16);
  ftc::MaxVector max;
  max.seq[0] = 99;
  for (auto _ : state) {
    auto msg = ftc::extract_message(p);
    msg->set_commit(0, max);
    ftc::append_message(p, *msg, 16);
    benchmark::DoNotOptimize(msg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PiggybackMaterialize)
    ->ArgsProduct({{1, 2, 4, 8}, {8, 64, 256}});

void BM_PiggybackViewWalk(benchmark::State& state) {
  // Zero-copy equivalent of BM_PiggybackMaterialize: walk every log and
  // write where they lie in the tailroom, update the commit vector in
  // place; forwarded bytes are never copied.
  const auto n_logs = static_cast<std::size_t>(state.range(0));
  const auto value_size = static_cast<std::size_t>(state.range(1));
  pkt::Packet p;
  const pkt::FlowKey flow{0x0a000001, 0x08080808, 1234, 80,
                          pkt::Ipv4Header::kProtoUdp};
  pkt::PacketBuilder(p).udp(flow, 256);
  std::vector<std::uint8_t> value;
  ftc::append_message(p, make_bench_message(n_logs, value_size, value), 16);
  ftc::MaxVector max;
  max.seq[0] = 99;
  for (auto _ : state) {
    ftc::PiggybackView v = ftc::PiggybackView::open(p);
    std::uint64_t acc = 0;
    const std::size_t count = v.log_count();
    for (std::size_t i = 0; i < count; ++i) {
      const ftc::WireLog log = v.log(i);
      acc += log.dep.seq[0];
      ftc::for_each_wire_write(log, [&](const state::WireUpdate& u) {
        acc += u.key + (u.value.empty() ? 0 : u.value.front());
      });
    }
    v.set_commit(0, max);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PiggybackViewWalk)->ArgsProduct({{1, 2, 4, 8}, {8, 64, 256}});

void BM_ApplierOffer(benchmark::State& state) {
  // A replica on a one-worker node, offered by its worker: the owner path
  // every log a chain replicates takes (classify, apply in place).
  ftc::ChainConfig cfg;
  const state::ShardMap map(cfg.num_partitions, 1);
  ftc::StateHandoffMesh mesh(2, 1, cfg.handoff_capacity);
  ftc::InOrderApplier applier(0, cfg, map, mesh);
  rt::set_current_shard(0);
  std::uint64_t seq = 0;
  ftc::PiggybackLog log;
  log.mbox = 0;
  log.dep.mask = 1ULL << applier.store().partition_of(7);
  log.writes.push_back({7, state::Bytes::of<std::uint64_t>(1), false});
  // Encode once; each iteration patches the one sequence number in place
  // (a single-partition record carries it right after mbox and mask).
  pkt::Packet scratch;
  ftc::PiggybackView v = ftc::PiggybackView::create(scratch, 16);
  v.append_log(log);
  const auto bytes = v.log_bytes(0);
  std::vector<std::uint8_t> record(bytes.begin(), bytes.end());
  for (auto _ : state) {
    ++seq;
    std::memcpy(record.data() + 12, &seq, 8);
    benchmark::DoNotOptimize(applier.offer(ftc::decode_record(
        record.data(), static_cast<std::uint32_t>(record.size()))));
  }
  rt::set_current_shard(rt::kNoShard);
}
BENCHMARK(BM_ApplierOffer);

// A failover's store transfer (Fig 13's state recovery): a MazuNAT-sized
// store of 16k flows with NatEntry values, serialized on the fetch source
// and rebuilt on a fresh replacement store. ns per op = ns per store.
constexpr std::size_t kFetchEntries = 16 * 1024;

void fill_nat_store(state::StateStore& store) {
  rt::Pcg32 rng(30, 1);
  mbox::NatEntry entry;
  for (std::size_t i = 0; i < kFetchEntries; ++i) {
    entry.created_ns = i;
    store.put_owner(rng.next64(), state::Bytes::of(entry));
  }
}

void BM_StoreSerialize(benchmark::State& state) {
  state::StateStore store(16);
  fill_nat_store(store);
  std::vector<std::uint8_t> blob;
  for (auto _ : state) {
    blob.clear();
    store.serialize(blob);
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kFetchEntries);
}
BENCHMARK(BM_StoreSerialize);

void BM_StoreDeserialize(benchmark::State& state) {
  std::vector<std::uint8_t> blob;
  {
    state::StateStore src(16);
    fill_nat_store(src);
    src.serialize(blob);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto dst = std::make_unique<state::StateStore>(16);
    state.ResumeTiming();
    const bool ok = dst->deserialize(blob);
    benchmark::DoNotOptimize(ok);
    if (!ok) state.SkipWithError("deserialize failed");
    state.PauseTiming();
    dst.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kFetchEntries);
}
BENCHMARK(BM_StoreDeserialize);

void BM_PoolAllocFree(benchmark::State& state) {
  pkt::PacketPool pool(256);
  for (auto _ : state) {
    pkt::Packet* p = pool.alloc_raw();
    benchmark::DoNotOptimize(p);
    pool.free_raw(p);
  }
}
BENCHMARK(BM_PoolAllocFree);

// Console reporter that also captures per-benchmark timings so the run
// can be written out as BENCH_micro_ops.json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      captured_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<std::pair<std::string, double>>& captured() const {
    return captured_;
  }

 private:
  std::vector<std::pair<std::string, double>> captured_;
};

}  // namespace

// Expanded BENCHMARK_MAIN() with a capturing reporter + JSON report.
int main(int argc, char** argv) {
  // Parse and strip our own --burst flag before google-benchmark sees the
  // argument vector (it rejects flags it does not recognize).
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--burst" && i + 1 < argc) {
      g_burst = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg.rfind("--burst=", 0) == 0) {
      g_burst = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + std::strlen("--burst="), nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (g_burst < 1) g_burst = 1;
  if (g_burst > ftc::kMaxBurst) g_burst = ftc::kMaxBurst;
  benchmark::RegisterBenchmark("BM_LinkBurstSendPoll", BM_LinkBurstSendPoll)
      ->Arg(static_cast<long>(g_burst));

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  obs::Report report("micro_ops");
  report.meta("schema_version", std::uint64_t{3});  // = bench::kBenchSchemaVersion
  report.meta("harness", "google-benchmark");
  report.meta("burst", std::to_string(g_burst));
  for (const auto& [name, real_time_ns] : reporter.captured()) {
    report.metric("real_time_ns", real_time_ns, {{"benchmark", name}});
    // Schema v2: every micro-benchmark iteration is one op.
    report.metric("ns_per_op", real_time_ns, {{"benchmark", name}});
    // Per-packet view of the burst benchmark so runs at different burst
    // sizes are directly comparable (CI enforces burst-32 <= burst-1).
    if (name.rfind("BM_LinkBurstSendPoll", 0) == 0) {
      report.metric("ns_per_packet",
                    real_time_ns / static_cast<double>(g_burst),
                    {{"benchmark", "BM_LinkBurstSendPoll"},
                     {"burst", std::to_string(g_burst)}});
    }
    // One iteration handles one packet tail: real time IS ns/packet. CI
    // pairs these by the "/logs/value_size" suffix and enforces that the
    // view walk undercuts materialization.
    if (name.rfind("BM_PiggybackMaterialize", 0) == 0 ||
        name.rfind("BM_PiggybackViewWalk", 0) == 0) {
      report.metric("ns_per_packet", real_time_ns, {{"benchmark", name}});
    }
  }
  const std::string path = report.write();
  if (!path.empty()) std::printf("results: %s\n", path.c_str());
  benchmark::Shutdown();
  return 0;
}
