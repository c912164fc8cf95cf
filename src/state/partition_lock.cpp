#include "state/partition_lock.hpp"

namespace sfc::state {
namespace {

// Slots outlive their threads: a contender may dereference an owner pointer
// it loaded just before that owner released the lock and exited, and a slot
// in the exited thread's TLS would go away with its stack. So each thread's
// slot is allocated once and never freed (one per thread ever started); the
// list keeps them reachable.
struct SlotNode {
  TxnSlot slot;
  SlotNode* next{nullptr};
};
std::atomic<SlotNode*> g_slots{nullptr};

}  // namespace

TxnSlot& this_thread_slot() noexcept {
  thread_local TxnSlot* const slot = [] {
    auto* node = new SlotNode;  // LINT_HOT_PATH_ALLOW(alloc): once per thread
    node->next = g_slots.load(std::memory_order_relaxed);
    while (!g_slots.compare_exchange_weak(node->next, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
    return &node->slot;
  }();
  return *slot;
}

}  // namespace sfc::state
