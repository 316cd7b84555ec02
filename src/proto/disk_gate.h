// Simulated back-end disk for the prototype (DESIGN.md §2): cache misses pass
// through a single-server FCFS queue whose service time follows the same
// seek/rotation/transfer model as the simulator's disk, scaled by
// `time_scale` so tests can compress wall-clock time. Runs entirely on the
// back-end's event loop (µs timers), so "disk waits" never block the loop and
// a scaled read completes when the model says, not at a timer tick.
//
// The queue length (outstanding reads) is the disk-utilization signal the
// back-end reports to the front-end dispatcher.
#ifndef SRC_PROTO_DISK_GATE_H_
#define SRC_PROTO_DISK_GATE_H_

#include <cstdint>
#include <functional>

#include "src/net/event_loop.h"
#include "src/sim/cost_model.h"
#include "src/util/liveness.h"

namespace lard {

class DiskGate {
 public:
  // `loop` must outlive the gate. time_scale 1.0 = paper-faithful latencies
  // (28.5 ms initial); 0.01 = hundredfold compression for tests.
  DiskGate(EventLoop* loop, const DiskCostModel& costs, double time_scale);
  // Pending completion timers become no-ops (their `done` callbacks are
  // dropped): a gate torn down mid-read must not run completions into a
  // destroyed owner.
  ~DiskGate() { alive_.Invalidate(); }

  // Schedules a read of `bytes`; `done` runs on the loop thread when the
  // (simulated) read completes. FCFS: the read starts when all previously
  // submitted reads have finished.
  void Read(uint64_t bytes, std::function<void()> done);

  int queue_length() const { return outstanding_; }
  uint64_t total_reads() const { return total_reads_; }

 private:
  EventLoop* loop_;
  DiskCostModel costs_;
  double time_scale_;
  LivenessToken alive_;
  int outstanding_ = 0;
  uint64_t total_reads_ = 0;
  int64_t busy_until_us_ = 0;  // when the last submitted read completes
};

}  // namespace lard

#endif  // SRC_PROTO_DISK_GATE_H_
