// Keep-alive index: a loop's connections on an intrusive list ordered by
// last activity, oldest at the head.
//
// Touching a connection (bytes in or out) splices it to the tail in O(1),
// with no allocation, hash lookup or callback. A periodic sweep pops
// expired entries from the head and stops at the first live one, so reaping
// costs nothing per connection that is still active. This replaces one
// timer per connection: idle deadlines are rearmed on every byte but almost
// never fire, which is the worst case for any timer structure.
//
// Loop-confined: every call happens on the owning loop's thread (the owners
// assert it).
#ifndef SRC_NET_IDLE_LIST_H_
#define SRC_NET_IDLE_LIST_H_

#include <cstdint>

namespace lard {

// Embedded in each entry (entries derive from it). An entry is on at most
// one list and unlinks itself when destroyed.
class IdleHook {
 public:
  IdleHook() = default;
  IdleHook(const IdleHook&) = delete;
  IdleHook& operator=(const IdleHook&) = delete;
  ~IdleHook() { Unlink(); }

  bool idle_linked() const { return next_ != nullptr; }
  int64_t last_active_us() const { return last_active_us_; }

 private:
  template <typename T>
  friend class IdleList;

  void Unlink() {
    if (next_ != nullptr) {
      prev_->next_ = next_;
      next_->prev_ = prev_;
      prev_ = nullptr;
      next_ = nullptr;
    }
  }

  IdleHook* prev_ = nullptr;
  IdleHook* next_ = nullptr;
  int64_t last_active_us_ = 0;
};

// `T` derives from IdleHook.
template <typename T>
class IdleList {
 public:
  IdleList() {
    head_.prev_ = &head_;
    head_.next_ = &head_;
  }
  ~IdleList() {
    while (!empty()) {
      head_.next_->Unlink();
    }
  }
  IdleList(const IdleList&) = delete;
  IdleList& operator=(const IdleList&) = delete;

  bool empty() const { return head_.next_ == &head_; }
  // The least recently active entry, or nullptr.
  T* front() const { return empty() ? nullptr : static_cast<T*>(head_.next_); }

  // Records activity at `now_us`: links `entry` at the tail, or splices it
  // there if it is already linked.
  void Touch(T* entry, int64_t now_us) {
    IdleHook* hook = entry;
    hook->Unlink();
    hook->last_active_us_ = now_us;
    hook->prev_ = head_.prev_;
    hook->next_ = &head_;
    head_.prev_->next_ = hook;
    head_.prev_ = hook;
  }

  void Unlink(T* entry) { static_cast<IdleHook*>(entry)->Unlink(); }

  // Unlinks every entry last active at or before `cutoff_us`, oldest first,
  // and hands each to `expired`, which may destroy it or Touch it back onto
  // the list at a time after `cutoff_us`. Returns how many were popped.
  template <typename Fn>
  size_t PopExpired(int64_t cutoff_us, Fn&& expired) {
    size_t popped = 0;
    while (!empty() && head_.next_->last_active_us_ <= cutoff_us) {
      T* entry = static_cast<T*>(head_.next_);
      head_.next_->Unlink();
      ++popped;
      expired(entry);
    }
    return popped;
  }

 private:
  IdleHook head_;  // sentinel: head_.next_ is the oldest entry, head_.prev_ the newest
};

}  // namespace lard

#endif  // SRC_NET_IDLE_LIST_H_
