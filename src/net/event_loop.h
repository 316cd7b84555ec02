// Single-threaded epoll event loop: the execution substrate for the
// prototype's front-end and back-end components (one loop thread each, like
// the paper's kernel-resident protocol contexts).
//
// Threading contract: Register/Modify/Unregister and ScheduleAfterUs must be
// called on the loop thread; Post() and Stop() may be called from any thread.
#ifndef SRC_NET_EVENT_LOOP_H_
#define SRC_NET_EVENT_LOOP_H_

#include <time.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/fd.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace lard {

class MetricsRegistry;
class MetricHistogram;
class MetricGauge;

class EventLoop {
 public:
  using IoCallback = std::function<void(uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Watches `fd` for `events` (EPOLLIN/EPOLLOUT/...). The loop does not own
  // the fd. One registration per fd.
  void Register(int fd, uint32_t events, IoCallback callback);
  void Modify(int fd, uint32_t events);
  void Unregister(int fd);

  // Runs `fn` once on the loop thread, no earlier than `delay_us` from now.
  // Every timer lives on one min-heap ordered by (deadline, arming order),
  // and the loop sleeps in epoll_pwait2 until the earliest deadline, so a
  // timer fires late only by the thread's wakeup latency. Timers are never
  // cancelled: owners guard callbacks with a LivenessToken instead.
  void ScheduleAfterUs(int64_t delay_us, std::function<void()> fn);
  void ScheduleAfterMs(int64_t delay_ms, std::function<void()> fn) {
    ScheduleAfterUs(delay_ms * 1000, std::move(fn));
  }
  size_t pending_timers() const { return timers_.size(); }

  // The loop's clock: CLOCK_MONOTONIC in microseconds.
  static int64_t NowUs();

  // Enqueues `task` for execution on the loop thread (thread-safe).
  void Post(std::function<void()> task);

  // Publishes loop health into `metrics` under a {loop="<label>"} label:
  // lard_loop_tick_us (work per iteration, excluding the epoll wait),
  // lard_loop_callback_us (per I/O handler / task / timer run time),
  // lard_loop_pending_tasks (posted-queue depth at each drain) and
  // lard_loop_wakeup_delay_us (Post() enqueue to execution latency — the
  // reactor's scheduling lag). Must be called before Run() starts; the
  // instruments then cost two clock reads per callback and nothing when
  // profiling was never enabled.
  void EnableProfiling(MetricsRegistry* metrics, const std::string& label);
  // The profiling instruments telemetry samples (null until EnableProfiling;
  // thread-safe to read after it).
  const MetricHistogram* wakeup_delay_us() const { return wakeup_delay_us_; }
  const MetricGauge* pending_tasks() const { return pending_tasks_; }

  // Runs until Stop(). Must be called from exactly one thread, which becomes
  // the loop thread.
  void Run();
  // Signals the loop to exit (thread-safe).
  void Stop();

  // Thread-safe: RunOnLoop-style helpers call this from arbitrary threads
  // while the loop thread publishes its id at Run() entry.
  bool IsInLoopThread() const {
    return std::this_thread::get_id() == loop_thread_.load(std::memory_order_acquire);
  }

  // Pinning contract enforcement: fatal in debug builds when called off the
  // loop thread while the loop is running; release builds count the
  // violation (see pinning_violations()) and keep serving. Passes before
  // Run() / after Stop(), when setup and teardown legally happen on the
  // owner thread. Loop-confined mutation paths (LoopShard state, Connection
  // maps, the loop's own fd/timer tables) call this at the top.
  void AssertInLoopThread() const;
  // Off-thread touches observed by AssertInLoopThread in release builds.
  // Stays 0 in a correct run; scraped into tests and health checks.
  uint64_t pinning_violations() const {
    return pinning_violations_.load(std::memory_order_relaxed);
  }

 private:
  struct Timer {
    int64_t deadline_us = 0;
    uint64_t seq = 0;  // arming order: equal deadlines fire first-armed first
    std::function<void()> fn;
  };
  // Heap order for std::*_heap: the earliest (deadline, seq) on top.
  static bool FiresLater(const Timer& a, const Timer& b) {
    return a.deadline_us != b.deadline_us ? a.deadline_us > b.deadline_us : a.seq > b.seq;
  }

  void Wakeup();
  void DrainTasks();
  // How long epoll_pwait2 may sleep: zero while posted tasks wait, else
  // until the earliest timer, and never more than 100 ms.
  timespec NextTimeout();
  void FireDueTimers();
  // Runs `fn`, observing its duration into the callback histogram when
  // profiling is on.
  template <typename Fn>
  void RunTimed(Fn&& fn);

  UniqueFd epoll_fd_;
  UniqueFd wakeup_fd_;  // eventfd
  std::atomic<bool> running_{false};
  // Set by Stop(), never cleared: a Stop() that lands before the loop
  // thread reaches Run() must still end it.
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_{};

  // fd -> callback; shared_ptr so a handler staying alive through dispatch is
  // safe even if Unregister runs from inside another handler.
  std::unordered_map<int, std::shared_ptr<IoCallback>> handlers_;

  // Posted tasks carry their enqueue time so wakeup-to-run latency is
  // measurable; the timestamp is only taken while profiling is enabled.
  struct PostedTask {
    std::function<void()> fn;
    int64_t enqueue_us = 0;
  };
  Mutex tasks_mutex_;
  std::deque<PostedTask> tasks_ LARD_GUARDED_BY(tasks_mutex_);
  // Lock-free mirror of tasks_.size(): DrainTasks() skips the mutex entirely
  // when nothing is pending (the steady-state case — the drain runs every
  // loop iteration), and NextTimeout() returns 0 while tasks wait so a
  // self-post during a drain is picked up next iteration without an eventfd
  // round trip.
  std::atomic<size_t> pending_count_{0};

  // Profiling instruments (EnableProfiling). The flag is atomic so Post()
  // may consult it from any thread; the pointers are written before the loop
  // thread starts and never change.
  std::atomic<bool> profiling_{false};
  MetricHistogram* tick_us_ = nullptr;
  MetricHistogram* callback_us_ = nullptr;
  MetricHistogram* wakeup_delay_us_ = nullptr;
  MetricGauge* pending_tasks_ = nullptr;

  // Loop-confined (no mutex by design): handlers_, timers_ and
  // next_timer_seq_ are only touched from the loop thread —
  // AssertInLoopThread() guards the mutating entry points at runtime and
  // tools/lint/concurrency_lint.py checks the callers statically.
  std::vector<Timer> timers_;  // min-heap (FiresLater); entries own their callbacks
  uint64_t next_timer_seq_ = 0;
  mutable std::atomic<uint64_t> pinning_violations_{0};
};

}  // namespace lard

#endif  // SRC_NET_EVENT_LOOP_H_
