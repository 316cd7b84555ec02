#include "src/proto/disk_gate.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lard {

DiskGate::DiskGate(EventLoop* loop, const DiskCostModel& costs, double time_scale)
    : loop_(loop), costs_(costs), time_scale_(time_scale) {
  LARD_CHECK(time_scale_ > 0.0);
}

void DiskGate::Read(uint64_t bytes, std::function<void()> done) {
  const int64_t service_us = std::max<int64_t>(
      1, std::llround(DiskServiceTimeUs(costs_, bytes) * time_scale_));
  const int64_t now = EventLoop::NowUs();
  const int64_t completion = std::max(now, busy_until_us_) + service_us;
  busy_until_us_ = completion;
  ++outstanding_;
  ++total_reads_;
  loop_->ScheduleAfterUs(completion - now, alive_.Guard([this, done = std::move(done)]() {
                           --outstanding_;
                           done();
                         }));
}

}  // namespace lard
