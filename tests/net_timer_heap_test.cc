// EventLoop timer tests: the single µs-precision heap behind
// ScheduleAfterUs. Timers fire no earlier than asked, equal deadlines fire in
// arming order, and a sub-millisecond delay is not rounded up to a
// millisecond. Real time on a running loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"

namespace lard {
namespace {

class LoopTimerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thread_ = std::thread([this]() { loop_.Run(); });
  }
  void TearDown() override {
    loop_.Stop();
    thread_.join();
  }
  void RunOnLoop(std::function<void()> fn) {
    std::promise<void> done;
    loop_.Post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }
  // Arms one `delay_us` timer on the loop and returns how long after arming
  // it fired, in µs.
  int64_t FireDelayUs(int64_t delay_us) {
    std::promise<int64_t> fired;
    int64_t armed_at = 0;
    RunOnLoop([&]() {
      armed_at = EventLoop::NowUs();
      loop_.ScheduleAfterUs(delay_us, [&]() { fired.set_value(EventLoop::NowUs()); });
    });
    return fired.get_future().get() - armed_at;
  }
  EventLoop loop_;
  std::thread thread_;
};

TEST_F(LoopTimerTest, NeverFiresEarly) {
  for (const int64_t delay_us : {0, 1, 90, 250, 700, 1500, 4000, 12000}) {
    EXPECT_GE(FireDelayUs(delay_us), delay_us) << "delay " << delay_us << " us";
  }
}

TEST_F(LoopTimerTest, SubMillisecondTimerIsNotRoundedUpToAMillisecond) {
  // A 200 µs timer must complete in well under a millisecond: the median of
  // repeated runs absorbs an occasional scheduling hiccup.
  std::vector<int64_t> delays;
  for (int i = 0; i < 21; ++i) {
    delays.push_back(FireDelayUs(200));
  }
  std::sort(delays.begin(), delays.end());
  EXPECT_GE(delays.front(), 200);
  EXPECT_LT(delays[delays.size() / 2], 800) << "median fire delay of a 200 us timer";
}

TEST_F(LoopTimerTest, EqualDelaysFireInArmingOrder) {
  // Armed back to back, many of these share a deadline µs; ties must break
  // by arming order, not by heap position.
  constexpr int kTimers = 200;
  std::vector<int> order;
  std::promise<void> all_fired;
  RunOnLoop([&]() {
    for (int i = 0; i < kTimers; ++i) {
      loop_.ScheduleAfterUs(500, [&, i]() {
        order.push_back(i);
        if (i + 1 == kTimers) {
          all_fired.set_value();
        }
      });
    }
  });
  all_fired.get_future().wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST_F(LoopTimerTest, EarlierDeadlineArmedLaterFiresFirst) {
  std::vector<int> order;
  std::promise<void> done;
  RunOnLoop([&]() {
    loop_.ScheduleAfterUs(3000, [&]() {
      order.push_back(2);
      done.set_value();
    });
    loop_.ScheduleAfterUs(300, [&]() { order.push_back(1); });
  });
  done.get_future().wait();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(LoopTimerTest, CallbackMayArmTimersAndHeapDrains) {
  // A callback arming the next timer (the self-rescheduling pattern every
  // periodic task uses) runs to completion, and fired timers leave the heap.
  std::promise<void> done;
  int remaining = 5;
  std::function<void()> tick = [&]() {
    if (--remaining == 0) {
      done.set_value();
      return;
    }
    loop_.ScheduleAfterUs(100, tick);
  };
  RunOnLoop([&]() { loop_.ScheduleAfterUs(100, tick); });
  done.get_future().wait();
  RunOnLoop([&]() { EXPECT_EQ(loop_.pending_timers(), 0u); });
}

}  // namespace
}  // namespace lard
