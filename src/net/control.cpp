#include "net/control.hpp"

#include <algorithm>
#include <thread>

#include "runtime/clock.hpp"

namespace sfc::net {

ControlPlane::ControlPlane(obs::Registry* registry) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry = own_registry_.get();
  }
  msgs_sent_ = &registry->counter("ctrl.msgs_sent");
  msgs_delivered_ = &registry->counter("ctrl.msgs_delivered");
  msgs_dropped_ = &registry->counter("ctrl.msgs_dropped_unknown_dest");
  wait_timeouts_ = &registry->counter("ctrl.wait_for_timeouts");
}

ControlPlane::Inbox& ControlPlane::register_node(NodeId node) {
  LockGuard lock(mutex_);
  // Map nodes never move, so the reference outlives later inserts.
  return inboxes_.try_emplace(node).first->second;
}

void ControlPlane::publish_due(Inbox& inbox) noexcept {
  inbox.next_due_ns_.store(
      inbox.queue.empty() ? Inbox::kNone : inbox.queue.front().deliver_at_ns,
      std::memory_order_release);
}

void ControlPlane::set_delay(NodeId a, NodeId b, std::uint64_t one_way_ns) {
  LockGuard lock(mutex_);
  pair_delay_ns_[pair_key(a, b)] = one_way_ns;
}

void ControlPlane::set_region(NodeId node, std::uint32_t region) {
  LockGuard lock(mutex_);
  regions_[node] = region;
}

void ControlPlane::set_inter_region_delay(std::uint64_t one_way_ns) {
  LockGuard lock(mutex_);
  inter_region_delay_ns_ = one_way_ns;
}

void ControlPlane::set_region_delay(std::uint32_t region_a,
                                    std::uint32_t region_b,
                                    std::uint64_t one_way_ns) {
  LockGuard lock(mutex_);
  region_pair_delay_ns_[pair_key(region_a, region_b)] = one_way_ns;
}

std::uint64_t ControlPlane::delay_between(NodeId a, NodeId b) const {
  LockGuard lock(mutex_);
  return delay_between_locked(a, b);
}

std::uint64_t ControlPlane::delay_between_locked(NodeId a, NodeId b) const {
  if (const auto it = pair_delay_ns_.find(pair_key(a, b));
      it != pair_delay_ns_.end()) {
    return it->second;
  }
  const auto ra = regions_.find(a);
  const auto rb = regions_.find(b);
  if (ra != regions_.end() && rb != regions_.end() &&
      ra->second != rb->second) {
    if (const auto it = region_pair_delay_ns_.find(
            pair_key(ra->second, rb->second));
        it != region_pair_delay_ns_.end()) {
      return it->second;
    }
    return inter_region_delay_ns_;
  }
  return 0;
}

void ControlPlane::set_bandwidth_gbps(double gbps) {
  LockGuard lock(mutex_);
  ns_per_byte_ = gbps > 0.0 ? 8.0 / gbps : 0.0;
}

void ControlPlane::send(Message msg) {
  // One critical section: delay lookup, bandwidth charge, and the sorted
  // insert must agree on a single view of the config, and two back-to-back
  // locks would let another sender interleave between them.
  LockGuard lock(mutex_);
  const std::uint64_t deliver_at =
      rt::now_ns() + delay_between_locked(msg.from, msg.to) +
      static_cast<std::uint64_t>(ns_per_byte_ *
                                 static_cast<double>(msg.payload.size()));
  msgs_sent_->inc();
  auto it = inboxes_.find(msg.to);
  if (it == inboxes_.end()) {  // Unknown destination: silently dropped.
    msgs_dropped_->inc();
    return;
  }
  // Keep the inbox ordered by delivery time so heterogeneous delays do not
  // block short-delay messages behind long-delay ones.
  auto& q = it->second.queue;
  auto pos = std::upper_bound(
      q.begin(), q.end(), deliver_at,
      [](std::uint64_t t, const Timed& m) { return t < m.deliver_at_ns; });
  q.insert(pos, Timed{std::move(msg), deliver_at});
  publish_due(it->second);
}

std::optional<Message> ControlPlane::poll(NodeId node) {
  LockGuard lock(mutex_);
  auto it = inboxes_.find(node);
  if (it == inboxes_.end() || it->second.queue.empty()) return std::nullopt;
  auto& head = it->second.queue.front();
  if (head.deliver_at_ns > rt::now_ns()) return std::nullopt;
  Message out = std::move(head.msg);
  it->second.queue.pop_front();
  publish_due(it->second);
  msgs_delivered_->inc();
  return out;
}

std::optional<Message> ControlPlane::wait_for(NodeId node, std::uint32_t type,
                                              std::uint64_t timeout_ns,
                                              std::uint64_t tag) {
  const std::uint64_t deadline = rt::now_ns() + timeout_ns;
  while (true) {
    {
      // Scan the deliverable prefix in place and extract only a match.
      // Non-matching messages keep their slot and original deliver_at_ns,
      // so the sorted-inbox invariant holds and concurrent poll/wait_for
      // callers still see them (the old implementation pulled them into a
      // private stash and re-queued them stamped "now", reordering them
      // against later sends and hiding them from other consumers).
      LockGuard lock(mutex_);
      auto it = inboxes_.find(node);
      if (it != inboxes_.end()) {
        auto& q = it->second.queue;
        const std::uint64_t now = rt::now_ns();
        for (auto mit = q.begin();
             mit != q.end() && mit->deliver_at_ns <= now; ++mit) {
          if (mit->msg.type == type && (tag == 0 || mit->msg.tag == tag)) {
            Message out = std::move(mit->msg);
            q.erase(mit);
            publish_due(it->second);
            msgs_delivered_->inc();
            return out;
          }
        }
      }
    }
    if (rt::now_ns() > deadline) break;
    std::this_thread::yield();
  }
  wait_timeouts_->inc();
  return std::nullopt;
}

}  // namespace sfc::net
