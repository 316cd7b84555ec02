#include "src/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace lard {

EventLoop::EventLoop() {
  epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  LARD_CHECK(epoll_fd_.valid()) << "epoll_create1 failed";
  wakeup_fd_.Reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  LARD_CHECK(wakeup_fd_.valid()) << "eventfd failed";

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wakeup_fd_.get();
  LARD_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wakeup_fd_.get(), &event) == 0);
}

EventLoop::~EventLoop() = default;

int64_t EventLoop::NowUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

void EventLoop::EnableProfiling(MetricsRegistry* metrics, const std::string& label) {
  LARD_CHECK(metrics != nullptr);
  LARD_CHECK(!running_.load()) << "EnableProfiling must precede Run()";
  const std::string suffix = "{loop=\"" + label + "\"}";
  tick_us_ = metrics->Histogram("lard_loop_tick_us" + suffix);
  callback_us_ = metrics->Histogram("lard_loop_callback_us" + suffix);
  wakeup_delay_us_ = metrics->Histogram("lard_loop_wakeup_delay_us" + suffix);
  pending_tasks_ = metrics->Gauge("lard_loop_pending_tasks" + suffix);
  profiling_.store(true, std::memory_order_release);
}

template <typename Fn>
void EventLoop::RunTimed(Fn&& fn) {
  if (!profiling_.load(std::memory_order_relaxed)) {
    fn();
    return;
  }
  const int64_t start = NowUs();
  fn();
  callback_us_->Observe(static_cast<double>(NowUs() - start));
}

void EventLoop::AssertInLoopThread() const {
  if (IsInLoopThread() || !running_.load(std::memory_order_acquire)) {
    return;  // on the loop thread, or single-threaded setup/teardown
  }
#ifndef NDEBUG
  LARD_CHECK(false) << "loop-confined state touched off its loop thread";
#else
  pinning_violations_.fetch_add(1, std::memory_order_relaxed);
#endif
}

void EventLoop::Register(int fd, uint32_t events, IoCallback callback) {
  AssertInLoopThread();
  LARD_CHECK(handlers_.find(fd) == handlers_.end()) << "fd " << fd << " already registered";
  handlers_[fd] = std::make_shared<IoCallback>(std::move(callback));
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  LARD_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) == 0)
      << "epoll_ctl(ADD) fd=" << fd;
}

void EventLoop::Modify(int fd, uint32_t events) {
  AssertInLoopThread();
  LARD_CHECK(handlers_.find(fd) != handlers_.end()) << "fd " << fd << " not registered";
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  LARD_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &event) == 0)
      << "epoll_ctl(MOD) fd=" << fd;
}

void EventLoop::Unregister(int fd) {
  AssertInLoopThread();
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    return;
  }
  handlers_.erase(it);
  // The fd may already be closed by the owner; ignore ENOENT/EBADF.
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::ScheduleAfterUs(int64_t delay_us, std::function<void()> fn) {
  AssertInLoopThread();
  timers_.push_back(Timer{NowUs() + delay_us, next_timer_seq_++, std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), FiresLater);
}

void EventLoop::Post(std::function<void()> task) {
  PostedTask entry;
  entry.fn = std::move(task);
  if (profiling_.load(std::memory_order_acquire)) {
    entry.enqueue_us = NowUs();
  }
  {
    MutexLock lock(&tasks_mutex_);
    tasks_.push_back(std::move(entry));
  }
  pending_count_.fetch_add(1, std::memory_order_release);
  // A post from the loop thread itself needs no eventfd write: the loop is
  // between callbacks right now, and NextTimeout() sees pending_count_ > 0
  // so the next epoll_pwait2 returns immediately and drains the queue.
  if (!IsInLoopThread()) {
    Wakeup();
  }
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeup_fd_.get(), &one, sizeof(one));
}

void EventLoop::DrainTasks() {
  // Fast path: the queue is empty in the common iteration; skip the mutex. A
  // concurrent Post() that this load misses also wrote the eventfd, so the
  // next epoll_pwait2 wakes immediately and the following drain sees it.
  if (pending_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  std::deque<PostedTask> tasks;
  {
    MutexLock lock(&tasks_mutex_);
    tasks.swap(tasks_);
  }
  pending_count_.fetch_sub(tasks.size(), std::memory_order_release);
  const bool profiling = profiling_.load(std::memory_order_relaxed);
  if (profiling) {
    pending_tasks_->Set(static_cast<double>(tasks.size()));
  }
  for (auto& task : tasks) {
    if (profiling && task.enqueue_us > 0) {
      wakeup_delay_us_->Observe(static_cast<double>(NowUs() - task.enqueue_us));
    }
    RunTimed(task.fn);
  }
}

timespec EventLoop::NextTimeout() {
  // Tasks posted after the last drain (e.g. by the loop thread itself, which
  // skips the eventfd) must run now, not after a nap.
  int64_t sleep_us = 0;
  if (pending_count_.load(std::memory_order_acquire) == 0) {
    // Wake periodically even without timers so Stop() is prompt.
    sleep_us = 100'000;
    if (!timers_.empty()) {
      sleep_us = std::clamp<int64_t>(timers_.front().deadline_us - NowUs(), 0, sleep_us);
    }
  }
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(sleep_us / 1'000'000);
  timeout.tv_nsec = static_cast<long>(sleep_us % 1'000'000) * 1000;
  return timeout;
}

void EventLoop::FireDueTimers() {
  const int64_t now = NowUs();
  while (!timers_.empty() && timers_.front().deadline_us <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), FiresLater);
    std::function<void()> fn = std::move(timers_.back().fn);
    timers_.pop_back();
    RunTimed(fn);
  }
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  // Deadlines are µs; the kernel's default 50 µs timer slack would let every
  // wakeup drift by up to that much (a tenth of a scaled disk read). The
  // setting is per thread, so only this loop's sleeps tighten.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  running_.store(true);
  epoll_event events[64];
  while (!stop_requested_.load()) {
    const timespec timeout = NextTimeout();
    const int n = ::epoll_pwait2(epoll_fd_.get(), events, 64, &timeout, nullptr);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      LARD_LOG(FATAL) << "epoll_pwait2: " << std::strerror(errno);
    }
    const bool profiling = profiling_.load(std::memory_order_relaxed);
    const int64_t tick_start = profiling ? NowUs() : 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_.get()) {
        uint64_t drain = 0;
        while (::read(wakeup_fd_.get(), &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      // Look the handler up fresh: an earlier callback in this batch may have
      // unregistered this fd.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) {
        continue;
      }
      auto handler = it->second;  // keep alive across the call
      RunTimed([&]() { (*handler)(events[i].events); });
    }
    DrainTasks();
    FireDueTimers();
    if (profiling) {
      // Work done this iteration, excluding the epoll wait itself.
      tick_us_->Observe(static_cast<double>(NowUs() - tick_start));
    }
  }
  running_.store(false);
  // Final drain so no posted task is silently dropped at shutdown.
  DrainTasks();
}

void EventLoop::Stop() {
  stop_requested_.store(true);
  running_.store(false);
  Wakeup();
}

}  // namespace lard
