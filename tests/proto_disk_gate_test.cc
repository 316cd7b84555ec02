// DiskGate fidelity: the emulated back-end disk completes reads when its cost
// model says. Extended LARD reads each node's disk queue, so a gate that
// rounds reads up (to a timer tick or a whole millisecond) distorts the very
// signal the policy acts on. Real time on a running loop at the scale most
// prototype tests and benches use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"
#include "src/proto/disk_gate.h"
#include "src/sim/cost_model.h"

namespace lard {
namespace {

constexpr double kTimeScale = 0.02;
constexpr uint64_t kReadBytes = 8 * 1024;
// Observed over modelled completion time. The cost model is the contract;
// the margin is the loop thread's wakeup latency.
constexpr double kMaxFidelityRatio = 1.1;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

class DiskGateFidelityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thread_ = std::thread([this]() { loop_.Run(); });
    RunOnLoop([this]() { gate_ = std::make_unique<DiskGate>(&loop_, costs_, kTimeScale); });
  }
  void TearDown() override {
    RunOnLoop([this]() { gate_.reset(); });
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
  double ModelledUs(uint64_t bytes) const { return DiskServiceTimeUs(costs_, bytes) * kTimeScale; }

  EventLoop loop_;
  std::thread thread_;
  DiskCostModel costs_;
  std::unique_ptr<DiskGate> gate_;
};

TEST_F(DiskGateFidelityTest, SequentialReadsTrackTheCostModel) {
  // One read at a time, no queueing. The ratio is the median over the reads,
  // so one preemption of the loop thread by the host does not decide it.
  constexpr int kReads = 25;
  std::vector<double> ratios;
  for (int i = 0; i < kReads; ++i) {
    std::promise<int64_t> done;
    int64_t submitted = 0;
    RunOnLoop([&]() {
      submitted = EventLoop::NowUs();
      gate_->Read(kReadBytes, [&]() { done.set_value(EventLoop::NowUs()); });
    });
    const double elapsed = static_cast<double>(done.get_future().get() - submitted);
    EXPECT_GE(elapsed, ModelledUs(kReadBytes) - 1.0)
        << "read " << i << " completed before its modelled time";
    ratios.push_back(elapsed / ModelledUs(kReadBytes));
  }
  EXPECT_LE(Median(ratios), kMaxFidelityRatio)
      << "median read took " << Median(ratios) * ModelledUs(kReadBytes) << " us, modelled "
      << ModelledUs(kReadBytes) << " us";
}

TEST_F(DiskGateFidelityTest, QueuedReadsCompleteAtTheSumOfTheirServiceTimes) {
  // FCFS single server: N reads submitted together finish one after another,
  // the k-th at the sum of the first k service times. Repeated, with the
  // median drain ratio judged, for the same reason as above.
  const std::vector<uint64_t> sizes = {8 * 1024, 2 * 1024, 16 * 1024, 8 * 1024,
                                       4 * 1024, 60 * 1024, 8 * 1024, 1024};
  double modelled_us = 0.0;
  for (const uint64_t bytes : sizes) {
    modelled_us += ModelledUs(bytes);
  }
  std::vector<double> drain_ratios;
  for (int round = 0; round < 5; ++round) {
    std::vector<int64_t> completed(sizes.size(), 0);
    std::vector<int> order;
    std::promise<void> all_done;
    int64_t submitted = 0;
    RunOnLoop([&]() {
      submitted = EventLoop::NowUs();
      for (size_t i = 0; i < sizes.size(); ++i) {
        gate_->Read(sizes[i], [&, i]() {
          completed[i] = EventLoop::NowUs();
          order.push_back(static_cast<int>(i));
          if (order.size() == sizes.size()) {
            all_done.set_value();
          }
        });
      }
      EXPECT_EQ(gate_->queue_length(), static_cast<int>(sizes.size()));
    });
    all_done.get_future().wait();

    double cumulative_us = 0.0;
    for (size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<int>(i)) << "reads completed out of FCFS order";
      cumulative_us += ModelledUs(sizes[i]);
      EXPECT_GE(static_cast<double>(completed[i] - submitted),
                cumulative_us - static_cast<double>(i + 1))
          << "read " << i << " completed before its queue position allows";
    }
    drain_ratios.push_back(static_cast<double>(completed.back() - submitted) / modelled_us);
  }
  EXPECT_LE(Median(drain_ratios), kMaxFidelityRatio)
      << "median drain of " << sizes.size() << " queued reads took "
      << Median(drain_ratios) * modelled_us << " us, modelled " << modelled_us << " us";
  RunOnLoop([&]() {
    EXPECT_EQ(gate_->queue_length(), 0);
    EXPECT_EQ(gate_->total_reads(), 5 * sizes.size());
  });
}

}  // namespace
}  // namespace lard
