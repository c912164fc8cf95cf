// Piggyback message wire format (paper §4.1, §5.1, §6).
//
// FTC appends state updates to the packets themselves. A piggyback message
// is a list of piggyback logs (one per transaction still traveling toward
// its tail) plus a list of commit vectors (one per middlebox whose tail
// announces what has been f+1-replicated). The message lives in the
// packet's tailroom, after the wire bytes, terminated by a fixed footer so
// a replica can find it without tracking offsets — mirroring the paper's
// in-place append ("there is no need to actually strip and reattach it").
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/dep_vector.hpp"
#include "runtime/small_vector.hpp"
#include "state/txn.hpp"
#include "packet/packet.hpp"
#include "state/state_store.hpp"

namespace sfc::ftc {

using MboxId = std::uint32_t;

/// --- Wire constants (shared by the serializer and the zero-copy view). ---
///
/// Footer: u32 body_len, u32 magic — fixed-size and last, so a receiver
/// finds the message without tracking offsets.
/// Body:   u16 log_count, u16 commit_count, u16 num_partitions, u16 reserved
///   logs:    u32 mbox; u64 mask; u64 seq[popcount(mask)];
///            u16 write_count; writes: u64 key, u16 len|0x8000(erase), bytes
///   commits: u32 mbox; u64 seq[num_partitions]
inline constexpr std::uint32_t kFooterMagic = 0x46544331;  // "FTC1"
inline constexpr std::size_t kFooterSize = 8;
inline constexpr std::size_t kWireHeaderSize = 8;
inline constexpr std::uint16_t kWireEraseFlag = 0x8000;
inline constexpr std::uint16_t kWireLenMask = 0x7fff;

/// State updates of one packet transaction at one middlebox, tagged with
/// the dependency vector that orders it (paper Fig. 3).
struct PiggybackLog {
  MboxId mbox{0};
  DepVector dep{};
  state::WriteSet writes;

  friend bool operator==(const PiggybackLog&, const PiggybackLog&) = default;
};

/// A tail's announcement: everything up to `max` has been replicated f+1
/// times for middlebox `mbox` (paper §5.1's commit vector).
struct CommitVector {
  MboxId mbox{0};
  MaxVector max{};

  friend bool operator==(const CommitVector&, const CommitVector&) = default;
};

struct PiggybackMessage {
  rt::SmallVector<PiggybackLog, 2> logs;
  rt::SmallVector<CommitVector, 2> commits;

  bool empty() const noexcept { return logs.empty() && commits.empty(); }

  /// Appends/overwrites the commit vector for a middlebox (latest wins).
  void set_commit(MboxId mbox, const MaxVector& max);

  /// Returns the commit vector for @p mbox, if present.
  const MaxVector* find_commit(MboxId mbox) const noexcept;

  /// Removes all logs belonging to @p mbox (what a tail does).
  void strip_logs_of(MboxId mbox);

  /// Removes the commit vector of @p mbox (what the head does once the
  /// vector has traveled the full ring).
  void strip_commit_of(MboxId mbox);

  /// Merges another message into this one: logs are concatenated in order,
  /// commit vectors merged componentwise (used by the forwarder when
  /// several buffer hand-offs ride one ingress packet).
  void merge(PiggybackMessage&& other);

  friend bool operator==(const PiggybackMessage&, const PiggybackMessage&) =
      default;
};

/// Serialized size of @p msg with @p num_partitions-wide commit vectors
/// (including the footer).
std::size_t serialized_size(const PiggybackMessage& msg,
                            std::size_t num_partitions) noexcept;

/// Appends @p msg to the packet's tail. Returns false (packet untouched)
/// if the tailroom cannot hold it — the caller treats this as the
/// "piggyback message too large for the frame" condition the paper
/// resolves with jumbo frames.
bool append_message(pkt::Packet& p, const PiggybackMessage& msg,
                    std::size_t num_partitions);

/// Appends a message holding @p count pre-serialized log records (their
/// wire encoding back to back, no commit vectors) to a packet without one.
/// Returns false (packet untouched) when the tailroom cannot hold it.
/// With no records this writes the empty message (header + footer).
bool append_wire_logs(pkt::Packet& p, std::span<const std::uint8_t> records,
                      std::size_t count, std::size_t num_partitions);

/// True if the packet carries a piggyback message footer.
bool has_message(const pkt::Packet& p) noexcept;

/// Parses and removes the piggyback message from the packet tail.
/// Returns std::nullopt if no valid message is attached.
std::optional<PiggybackMessage> extract_message(pkt::Packet& p);

/// --- Zero-copy in-place processing (paper §5.1: "there is no need to
/// actually strip and reattach it"). ---

/// One log's header decoded off the wire, with cursors into the record
/// for its write set. Valid only while the bytes it points into (a packet
/// tail, a log history, a control message) stay alive and unmoved.
struct WireLog {
  MboxId mbox{0};
  DepVector dep{};
  const std::uint8_t* record{nullptr};  ///< First byte of the record.
  const std::uint8_t* writes{nullptr};  ///< First serialized write.
  std::uint16_t write_count{0};
  std::uint32_t wire_size{0};  ///< Full size of this log record on the wire.

  /// The whole record as it sits on the wire.
  std::span<const std::uint8_t> bytes() const noexcept {
    return {record, wire_size};
  }
};

/// Size of the wire record of a log whose dependency vector touches the
/// partitions in @p mask and whose write set is @p writes.
std::size_t log_size(std::uint64_t mask,
                     std::span<const state::StateUpdate> writes) noexcept;

/// The log record encoder: writes the wire record (log_size() bytes) of
/// @p mbox's log with dependency mask @p mask, sequence numbers @p seq
/// (read where @p mask is set) and write set @p writes to @p out. Every
/// path that encodes a record (a head's committed transaction,
/// PiggybackView::append_log, append_message) goes through it.
void encode_log(std::uint8_t* out, MboxId mbox, std::uint64_t mask,
                const std::array<std::uint64_t, state::kMaxPartitions>& seq,
                std::span<const state::StateUpdate> writes) noexcept;

/// Bounds-checks the log record at the start of @p in: header, dependency
/// mask, every write. Returns the record's size, or 0 when it is malformed
/// or truncated. This is the walk PiggybackView::open runs per log.
std::size_t wire_record_size(std::span<const std::uint8_t> in) noexcept;

/// Decodes the header of the @p size-byte record at @p record, which
/// wire_record_size() accepted.
WireLog decode_record(const std::uint8_t* record, std::uint32_t size) noexcept;

/// Out-of-band log records (NACK replies, the history section of a state
/// fetch): records back to back, as a log history and the feedback channel
/// hold them. Checks every record and appends one WireLog per record,
/// pointing into @p in, to @p out. False when any record is malformed or
/// truncated (@p out then holds the records before it).
bool open_wire_records(std::span<const std::uint8_t> in,
                       std::vector<WireLog>& out);

/// Calls fn(const state::WireUpdate&) for each write of @p log, values as
/// spans over the wire bytes. Bounds were validated when the owning view
/// was opened.
template <typename Fn>
void for_each_wire_write(const WireLog& log, Fn&& fn) {
  const std::uint8_t* p = log.writes;
  for (std::uint16_t i = 0; i < log.write_count; ++i) {
    std::uint64_t key = 0;
    std::uint16_t len_flags = 0;
    std::memcpy(&key, p, 8);
    std::memcpy(&len_flags, p + 8, 2);
    p += 10;
    const std::size_t len = len_flags & kWireLenMask;
    fn(state::WireUpdate{key, {p, len}, (len_flags & kWireEraseFlag) != 0});
    p += len;
  }
}

/// Zero-copy cursor over the piggyback message serialized in a packet's
/// tail. open() validates the whole message once — footer, header, every
/// log and write bound, the commit-region width — and records per-log
/// offsets, so iteration and mutation afterwards are bounds-check-free.
/// Mutators keep the packet bytes, the header/footer fields and the
/// internal offsets consistent; bytes of logs that are merely forwarded
/// are never touched. The view holds a pointer into the packet: it must
/// not outlive it, and any other tail mutation invalidates it.
class PiggybackView {
 public:
  PiggybackView() = default;

  /// Opens the message at the packet tail. The view is invalid (!ok())
  /// when no message is attached or the tail is malformed; open() never
  /// modifies the packet.
  static PiggybackView open(pkt::Packet& p) noexcept;

  /// Appends an empty message (header + footer) to a packet without one
  /// and opens it. Invalid view when the tailroom is short.
  static PiggybackView create(pkt::Packet& p, std::size_t num_partitions);

  bool ok() const noexcept { return p_ != nullptr; }
  std::size_t log_count() const noexcept { return log_off_.size(); }
  std::size_t commit_count() const noexcept { return commit_count_; }
  std::size_t num_partitions() const noexcept { return num_partitions_; }
  /// Bytes the message occupies at the packet tail (body + footer).
  std::size_t tail_size() const noexcept { return body_len_ + kFooterSize; }
  /// Packet bytes preceding the message (the wire frame a parser sees).
  std::size_t wire_size() const noexcept { return p_->size() - tail_size(); }

  /// Decodes log @p i's header; its writes stay on the wire.
  WireLog log(std::size_t i) const noexcept;
  /// Log @p i's whole record as it sits on the wire.
  std::span<const std::uint8_t> log_bytes(std::size_t i) const noexcept {
    const std::uint32_t end =
        i + 1 < log_off_.size() ? log_off_[i + 1] : logs_end_;
    return {body() + log_off_[i], end - log_off_[i]};
  }
  bool has_logs_of(MboxId mbox) const noexcept;

  /// Decodes commit vector @p i into @p out (partitions beyond
  /// num_partitions() zero-filled, as extract_message does) and returns
  /// its mbox.
  MboxId commit(std::size_t i, MaxVector& out) const noexcept;

  /// Overwrites in place (fixed width per num_partitions) or appends the
  /// commit vector for @p mbox. Returns false — packet unmodified — when
  /// an append would not fit the tailroom.
  bool set_commit(MboxId mbox, const MaxVector& max);

  /// Serializes @p log at the end of the log region, shifting the commit
  /// region and footer up. Returns false (packet unmodified) when the
  /// tailroom cannot hold it.
  bool append_log(const PiggybackLog& log);

  /// append_log() for a record already in wire form (log_bytes() of
  /// another view): copied as is, never re-encoded.
  bool append_wire_log(std::span<const std::uint8_t> record);

  /// Removes every log of @p mbox with one compacting pass over the log
  /// region; logs that stay are moved at most once and a message without
  /// logs of @p mbox is untouched. Returns the number removed.
  std::size_t strip_logs_of(MboxId mbox);

  /// Removes the whole message from the packet (buffer hand-off: packets
  /// leave the chain bare). The view is invalid afterwards.
  void strip_tail() noexcept;

 private:
  std::uint8_t* body() const noexcept { return p_->data() + body_off_; }
  std::size_t commit_entry_size() const noexcept {
    return 4 + 8 * static_cast<std::size_t>(num_partitions_);
  }
  /// Opens @p need bytes at the end of the log region (commit region and
  /// footer shift up) and returns where the new record goes; null — packet
  /// unmodified — when the tailroom is short.
  std::uint8_t* grow_logs(std::size_t need);
  /// Rewrites the header counts and the (possibly moved) footer.
  void sync_header_footer() noexcept;

  pkt::Packet* p_{nullptr};
  std::uint32_t body_off_{0};   ///< Offset of the body from packet data().
  std::uint32_t body_len_{0};
  std::uint32_t logs_end_{0};   ///< Body offset where the commit region starts.
  std::uint16_t commit_count_{0};
  std::uint16_t num_partitions_{0};
  /// Per-log body offsets. Sized for a burst's merged feedback hand-off
  /// (about one record per packet), so a head-ingress view stays inline.
  rt::SmallVector<std::uint32_t, kMaxBurst> log_off_;
};

/// Frame length a parser should see for @p p: packet size minus a
/// syntactically plausible piggyback tail (footer peek only, no full
/// validation — parse_packet() stays inside the returned length either
/// way). Returns p.size() when no tail is attached.
std::size_t wire_size_hint(const pkt::Packet& p) noexcept;

}  // namespace sfc::ftc
