#include "core/piggyback.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sfc::ftc {

namespace {

// Wire layout constants (kFooterMagic etc.) live in the header, shared
// with the zero-copy PiggybackView.
constexpr std::uint16_t kEraseFlag = kWireEraseFlag;
constexpr std::uint16_t kLenMask = kWireLenMask;

class Writer {
 public:
  explicit Writer(std::uint8_t* out) : p_(out) {}

  template <typename T>
  void pod(T v) noexcept {
    std::memcpy(p_, &v, sizeof(T));
    p_ += sizeof(T);
  }

  void raw(const void* data, std::size_t len) noexcept {
    // An empty source may be null (an empty vector's data()), and memcpy
    // from null is undefined even for zero bytes.
    if (len == 0) return;
    std::memcpy(p_, data, len);
    p_ += len;
  }

  std::uint8_t* pos() const noexcept { return p_; }

 private:
  std::uint8_t* p_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : p_(data), end_(data + len) {}

  template <typename T>
  bool pod(T& out) noexcept {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&out, p_, sizeof(T));
    p_ += sizeof(T);
    return true;
  }

  const std::uint8_t* raw(std::size_t len) noexcept {
    if (remaining() < len) return nullptr;
    const std::uint8_t* out = p_;
    p_ += len;
    return out;
  }

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Serializes one log record: the single encoder behind encode_log,
/// append_message and PiggybackView::append_log, so every path is
/// byte-identical.
void write_log(Writer& w, MboxId mbox, std::uint64_t mask,
               const std::array<std::uint64_t, state::kMaxPartitions>& seq,
               std::span<const state::StateUpdate> writes) noexcept {
  w.pod<std::uint32_t>(mbox);
  w.pod<std::uint64_t>(mask);
  constexpr std::uint64_t kPartitionBits = (1ULL << state::kMaxPartitions) - 1;
  for (std::uint64_t m = mask & kPartitionBits; m != 0; m &= m - 1) {
    w.pod<std::uint64_t>(seq[static_cast<std::size_t>(std::countr_zero(m))]);
  }
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(writes.size()));
  for (const auto& wr : writes) {
    w.pod<std::uint64_t>(wr.key);
    const auto len = static_cast<std::uint16_t>(wr.value.size());
    w.pod<std::uint16_t>(wr.erase ? static_cast<std::uint16_t>(len | kEraseFlag)
                                  : len);
    w.raw(wr.value.data(), wr.value.size());
  }
}

void write_log(Writer& w, const PiggybackLog& log) noexcept {
  write_log(w, log.mbox, log.dep.mask, log.dep.seq,
            {log.writes.data(), log.writes.size()});
}

std::size_t record_size(const PiggybackLog& log) noexcept {
  return ::sfc::ftc::log_size(log.dep.mask,
                              {log.writes.data(), log.writes.size()});
}

}  // namespace

std::size_t log_size(std::uint64_t mask,
                     std::span<const state::StateUpdate> writes) noexcept {
  std::size_t n = 4 + 8 + 8 * static_cast<std::size_t>(std::popcount(mask)) + 2;
  for (const auto& w : writes) n += 8 + 2 + w.value.size();
  return n;
}

void encode_log(std::uint8_t* out, MboxId mbox, std::uint64_t mask,
                const std::array<std::uint64_t, state::kMaxPartitions>& seq,
                std::span<const state::StateUpdate> writes) noexcept {
  Writer w(out);
  write_log(w, mbox, mask, seq, writes);
}

void PiggybackMessage::set_commit(MboxId mbox, const MaxVector& max) {
  for (auto& c : commits) {
    if (c.mbox == mbox) {
      c.max = max;
      return;
    }
  }
  commits.push_back(CommitVector{mbox, max});
}

const MaxVector* PiggybackMessage::find_commit(MboxId mbox) const noexcept {
  for (const auto& c : commits) {
    if (c.mbox == mbox) return &c.max;
  }
  return nullptr;
}

void PiggybackMessage::strip_logs_of(MboxId mbox) {
  logs.remove_if([mbox](const PiggybackLog& l) { return l.mbox == mbox; });
}

void PiggybackMessage::strip_commit_of(MboxId mbox) {
  commits.remove_if([mbox](const CommitVector& c) { return c.mbox == mbox; });
}

void PiggybackMessage::merge(PiggybackMessage&& other) {
  logs.append_move(std::move(other.logs));
  for (auto& c : other.commits) {
    if (const MaxVector* mine = find_commit(c.mbox)) {
      MaxVector merged = *mine;
      merged.merge(c.max);
      set_commit(c.mbox, merged);
    } else {
      commits.push_back(std::move(c));
    }
  }
}

std::size_t serialized_size(const PiggybackMessage& msg,
                            std::size_t num_partitions) noexcept {
  std::size_t n = 8;  // Header.
  for (const auto& log : msg.logs) n += record_size(log);
  n += msg.commits.size() * (4 + 8 * num_partitions);
  return n + kFooterSize;
}

bool append_message(pkt::Packet& p, const PiggybackMessage& msg,
                    std::size_t num_partitions) {
  const std::size_t total = serialized_size(msg, num_partitions);
  if (p.tailroom() < total) return false;

  Writer w(p.push_back(total));
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(msg.logs.size()));
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(msg.commits.size()));
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(num_partitions));
  w.pod<std::uint16_t>(0);

  for (const auto& log : msg.logs) write_log(w, log);
  for (const auto& c : msg.commits) {
    w.pod<std::uint32_t>(c.mbox);
    for (std::size_t i = 0; i < num_partitions; ++i) {
      w.pod<std::uint64_t>(c.max.seq[i]);
    }
  }
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(total - kFooterSize));
  w.pod<std::uint32_t>(kFooterMagic);
  return true;
}

bool append_wire_logs(pkt::Packet& p, std::span<const std::uint8_t> records,
                      std::size_t count, std::size_t num_partitions) {
  const std::size_t total = kWireHeaderSize + records.size() + kFooterSize;
  if (p.tailroom() < total) return false;
  Writer w(p.push_back(total));
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(count));
  w.pod<std::uint16_t>(0);
  w.pod<std::uint16_t>(static_cast<std::uint16_t>(num_partitions));
  w.pod<std::uint16_t>(0);
  w.raw(records.data(), records.size());
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(total - kFooterSize));
  w.pod<std::uint32_t>(kFooterMagic);
  return true;
}

bool has_message(const pkt::Packet& p) noexcept {
  if (p.size() < kFooterSize) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, p.data() + p.size() - 4, 4);
  return magic == kFooterMagic;
}

std::optional<PiggybackMessage> extract_message(pkt::Packet& p) {
  if (!has_message(p)) return std::nullopt;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, p.data() + p.size() - kFooterSize, 4);
  if (p.size() < kFooterSize + body_len) return std::nullopt;

  Reader r(p.data() + p.size() - kFooterSize - body_len, body_len);
  std::uint16_t log_count = 0, commit_count = 0, num_partitions = 0, reserved = 0;
  if (!r.pod(log_count) || !r.pod(commit_count) || !r.pod(num_partitions) ||
      !r.pod(reserved) || num_partitions > state::kMaxPartitions) {
    return std::nullopt;
  }

  PiggybackMessage msg;
  for (std::uint16_t i = 0; i < log_count; ++i) {
    PiggybackLog log;
    if (!r.pod(log.mbox) || !r.pod(log.dep.mask)) return std::nullopt;
    for (std::size_t pidx = 0; pidx < state::kMaxPartitions; ++pidx) {
      if (log.dep.touches(pidx) && !r.pod(log.dep.seq[pidx])) {
        return std::nullopt;
      }
    }
    std::uint16_t write_count = 0;
    if (!r.pod(write_count)) return std::nullopt;
    for (std::uint16_t wi = 0; wi < write_count; ++wi) {
      state::StateUpdate u;
      std::uint16_t len_flags = 0;
      if (!r.pod(u.key) || !r.pod(len_flags)) return std::nullopt;
      u.erase = (len_flags & kEraseFlag) != 0;
      const std::size_t len = len_flags & kLenMask;
      const std::uint8_t* bytes = r.raw(len);
      if (bytes == nullptr) return std::nullopt;
      u.value.assign({bytes, len});
      log.writes.push_back(std::move(u));
    }
    msg.logs.push_back(std::move(log));
  }
  for (std::uint16_t i = 0; i < commit_count; ++i) {
    CommitVector c;
    if (!r.pod(c.mbox)) return std::nullopt;
    for (std::size_t pidx = 0; pidx < num_partitions; ++pidx) {
      if (!r.pod(c.max.seq[pidx])) return std::nullopt;
    }
    msg.commits.push_back(std::move(c));
  }
  if (r.remaining() != 0) return std::nullopt;

  p.trim_back(kFooterSize + body_len);
  return msg;
}

std::size_t wire_record_size(std::span<const std::uint8_t> in) noexcept {
  const std::uint8_t* b = in.data();
  const std::size_t avail = in.size();
  if (avail < 12) return 0;
  std::uint64_t mask = 0;
  std::memcpy(&mask, b + 4, 8);
  // Bits beyond the partition range would desynchronize the sequence
  // array length between writer and reader: reject as malformed.
  if ((mask >> state::kMaxPartitions) != 0) return 0;
  std::size_t need = 12 + 8 * static_cast<std::size_t>(std::popcount(mask));
  if (avail < need + 2) return 0;
  std::uint16_t write_count = 0;
  std::memcpy(&write_count, b + need, 2);
  need += 2;
  for (std::uint16_t wi = 0; wi < write_count; ++wi) {
    if (avail < need + 10) return 0;
    std::uint16_t len_flags = 0;
    std::memcpy(&len_flags, b + need + 8, 2);
    need += 10 + (len_flags & kLenMask);
    if (avail < need) return 0;
  }
  return need;
}

WireLog decode_record(const std::uint8_t* b, std::uint32_t size) noexcept {
  WireLog out;
  out.record = b;
  out.wire_size = size;
  std::memcpy(&out.mbox, b, 4);
  std::memcpy(&out.dep.mask, b + 4, 8);
  const std::uint8_t* cursor = b + 12;
  for (std::uint64_t m = out.dep.mask; m != 0; m &= m - 1) {
    const auto pidx = static_cast<std::size_t>(std::countr_zero(m));
    std::memcpy(&out.dep.seq[pidx], cursor, 8);
    cursor += 8;
  }
  std::memcpy(&out.write_count, cursor, 2);
  out.writes = cursor + 2;
  return out;
}

bool open_wire_records(std::span<const std::uint8_t> in,
                       std::vector<WireLog>& out) {
  while (!in.empty()) {
    const std::size_t size = wire_record_size(in);
    if (size == 0) return false;
    out.push_back(decode_record(in.data(), static_cast<std::uint32_t>(size)));
    in = in.subspan(size);
  }
  return true;
}

PiggybackView PiggybackView::open(pkt::Packet& p) noexcept {
  PiggybackView v;
  if (!has_message(p)) return v;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, p.data() + p.size() - kFooterSize, 4);
  if (p.size() < kFooterSize + body_len || body_len < kWireHeaderSize) return v;

  const std::uint8_t* b = p.data() + p.size() - kFooterSize - body_len;
  std::uint16_t log_count = 0, commit_count = 0, num_partitions = 0;
  std::memcpy(&log_count, b, 2);
  std::memcpy(&commit_count, b + 2, 2);
  std::memcpy(&num_partitions, b + 4, 2);
  if (num_partitions > state::kMaxPartitions) return v;

  // One validation walk over the log region; iteration and mutation are
  // bounds-check-free afterwards.
  std::size_t off = kWireHeaderSize;
  for (std::uint16_t i = 0; i < log_count; ++i) {
    const std::size_t need = wire_record_size({b + off, body_len - off});
    if (need == 0) {
      v.log_off_.clear();
      return v;
    }
    v.log_off_.push_back(static_cast<std::uint32_t>(off));
    off += need;
  }
  const std::size_t commit_bytes =
      static_cast<std::size_t>(commit_count) * (4 + 8 * num_partitions);
  if (body_len - off != commit_bytes) {
    v.log_off_.clear();
    return v;
  }

  v.p_ = &p;
  v.body_off_ = static_cast<std::uint32_t>(p.size() - kFooterSize - body_len);
  v.body_len_ = body_len;
  v.logs_end_ = static_cast<std::uint32_t>(off);
  v.commit_count_ = commit_count;
  v.num_partitions_ = num_partitions;
  return v;
}

PiggybackView PiggybackView::create(pkt::Packet& p, std::size_t num_partitions) {
  if (!append_wire_logs(p, {}, 0, num_partitions)) return PiggybackView{};
  return open(p);
}

WireLog PiggybackView::log(std::size_t i) const noexcept {
  const std::uint32_t end =
      i + 1 < log_off_.size() ? log_off_[i + 1] : logs_end_;
  return decode_record(body() + log_off_[i], end - log_off_[i]);
}

bool PiggybackView::has_logs_of(MboxId mbox) const noexcept {
  for (const std::uint32_t off : log_off_) {
    MboxId m = 0;
    std::memcpy(&m, body() + off, 4);
    if (m == mbox) return true;
  }
  return false;
}

MboxId PiggybackView::commit(std::size_t i, MaxVector& out) const noexcept {
  const std::uint8_t* entry = body() + logs_end_ + i * commit_entry_size();
  MboxId mbox = 0;
  std::memcpy(&mbox, entry, 4);
  out = MaxVector{};
  std::memcpy(out.seq.data(), entry + 4, 8 * num_partitions_);
  return mbox;
}

bool PiggybackView::set_commit(MboxId mbox, const MaxVector& max) {
  std::uint8_t* entry = body() + logs_end_;
  for (std::uint16_t i = 0; i < commit_count_; ++i, entry += commit_entry_size()) {
    MboxId m = 0;
    std::memcpy(&m, entry, 4);
    if (m == mbox) {
      // Fixed-width overwrite: the dominant case once a tail has attached
      // its vector before (latest wins, exactly like the legacy
      // PiggybackMessage::set_commit).
      std::memcpy(entry + 4, max.seq.data(), 8 * num_partitions_);
      return true;
    }
  }
  const std::size_t need = commit_entry_size();
  if (p_->tailroom() < need) return false;
  p_->push_back(need);
  // Shift the footer up and write the new commit where it was. The two
  // regions cannot overlap (a commit entry is at least 12 bytes).
  std::uint8_t* b = body();
  std::memmove(b + body_len_ + need, b + body_len_, kFooterSize);
  std::memcpy(b + body_len_, &mbox, 4);
  std::memcpy(b + body_len_ + 4, max.seq.data(), 8 * num_partitions_);
  ++commit_count_;
  body_len_ += static_cast<std::uint32_t>(need);
  sync_header_footer();
  return true;
}

std::uint8_t* PiggybackView::grow_logs(std::size_t need) {
  if (p_->tailroom() < need) return nullptr;
  p_->push_back(need);
  std::uint8_t* at = body() + logs_end_;
  std::memmove(at + need, at, (body_len_ - logs_end_) + kFooterSize);
  log_off_.push_back(logs_end_);
  logs_end_ += static_cast<std::uint32_t>(need);
  body_len_ += static_cast<std::uint32_t>(need);
  sync_header_footer();
  return at;
}

bool PiggybackView::append_log(const PiggybackLog& log) {
  std::uint8_t* at = grow_logs(record_size(log));
  if (at == nullptr) return false;
  Writer w(at);
  write_log(w, log);
  return true;
}

bool PiggybackView::append_wire_log(std::span<const std::uint8_t> record) {
  std::uint8_t* at = grow_logs(record.size());
  if (at == nullptr) return false;
  std::memcpy(at, record.data(), record.size());
  return true;
}

std::size_t PiggybackView::strip_logs_of(MboxId mbox) {
  std::uint8_t* b = body();
  std::uint32_t w = kWireHeaderSize;  // Compaction write cursor.
  std::size_t kept = 0;  // Offsets compact in place: kept <= i always.
  const std::size_t count = log_off_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t off = log_off_[i];
    const std::uint32_t end = i + 1 < count ? log_off_[i + 1] : logs_end_;
    MboxId m = 0;
    std::memcpy(&m, b + off, 4);
    if (m == mbox) continue;
    if (w != off) std::memmove(b + w, b + off, end - off);
    log_off_[kept++] = w;
    w += end - off;
  }
  const std::size_t removed = count - kept;
  if (removed == 0) return 0;  // Forwarded-unchanged bytes never touched.
  std::memmove(b + w, b + logs_end_, (body_len_ - logs_end_) + kFooterSize);
  const std::uint32_t delta = logs_end_ - w;
  while (log_off_.size() > kept) log_off_.pop_back();
  logs_end_ = w;
  body_len_ -= delta;
  p_->trim_back(delta);
  sync_header_footer();
  return removed;
}

void PiggybackView::strip_tail() noexcept {
  p_->trim_back(tail_size());
  p_ = nullptr;
}

void PiggybackView::sync_header_footer() noexcept {
  std::uint8_t* b = body();
  const auto log_count = static_cast<std::uint16_t>(log_off_.size());
  std::memcpy(b, &log_count, 2);
  std::memcpy(b + 2, &commit_count_, 2);
  std::memcpy(b + body_len_, &body_len_, 4);
  std::memcpy(b + body_len_ + 4, &kFooterMagic, 4);
}

std::size_t wire_size_hint(const pkt::Packet& p) noexcept {
  if (!has_message(p)) return p.size();
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, p.data() + p.size() - kFooterSize, 4);
  if (p.size() < kFooterSize + body_len) return p.size();
  return p.size() - kFooterSize - body_len;
}

}  // namespace sfc::ftc
