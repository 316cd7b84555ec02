// The benchmark's closed-loop client: a few blocking threads, each replaying
// its share of the workload's sessions back to back (no think time). A
// P-HTTP session is one connection whose batches are sent pipelined, one
// batch after the previous batch's responses are in; an HTTP/1.0 session is
// one request on its own connection. Every response is checked (checks.h).
#ifndef SERVEBENCH_SRC_CLIENT_H_
#define SERVEBENCH_SRC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "servebench/src/checks.h"
#include "servebench/src/workload.h"

namespace servebench {

int64_t NowNs();  // CLOCK_MONOTONIC

struct BatchSample {
  int64_t done_ns = 0;     // CLOCK_MONOTONIC at the last response parsed
  int64_t latency_ns = 0;  // first byte sent -> last response parsed
  uint32_t requests = 0;   // pipelined requests in the batch
  uint32_t passed = 0;     // responses of the batch that passed every check
};

// CPU clocks read at a sub-window boundary of a timed pass.
struct CpuTick {
  int64_t t_ns = 0;
  int64_t process_cpu_ns = 0;
  int64_t client_cpu_ns = 0;  // sum over the client threads
  // Idle and steal time of the CPU the process runs on (/proc/stat), in
  // clock ticks: steal is time the host gave that CPU to someone else.
  int64_t cpu_idle_ticks = 0;
  int64_t cpu_steal_ticks = 0;
};

struct PassResult {
  uint64_t attempted = 0;          // requests sent
  uint64_t passed = 0;             // responses that passed every check
  uint64_t failed = 0;             // failed checks + requests lost to transport errors
  uint64_t transport_errors = 0;   // connections that broke
  uint64_t verdicts[static_cast<int>(Verdict::kCount)] = {};
  uint64_t connections = 0;
  std::vector<BatchSample> batches;  // completed batches
  std::vector<CpuTick> ticks;        // timed passes: start, then each sub-window end
  double wall_s = 0.0;
};

class Client {
 public:
  // `workload` must outlive the client.
  Client(const Workload* workload, uint16_t port, int threads);

  // Each thread replays its sessions from where it last stopped, wrapping
  // around its share, and stops before the first batch due after `seconds`.
  // The CPU clocks are read at the start and at the end of each of
  // `subwindows` equal parts of the window.
  PassResult RunFor(double seconds, int subwindows);
  // Each thread replays exactly `sessions_per_thread` sessions.
  PassResult RunSessions(int64_t sessions_per_thread);
  // The sessions the next RunSessions(sessions_per_thread) will replay.
  std::vector<size_t> NextSessions(int64_t sessions_per_thread) const;

  // Every response parsed since construction, passed or not.
  uint64_t responses_received() const { return responses_received_.load(); }

 private:
  static constexpr int64_t kUnlimited = -1;

  PassResult Run(double seconds, int subwindows, int64_t sessions_per_thread);
  // Returns false when the stop flag ended the session early.
  bool RunSession(const SessionRequests& session, PassResult* out);

  const Workload* workload_;
  uint16_t port_;
  std::vector<std::vector<size_t>> shares_;  // session indexes per thread
  std::vector<size_t> cursors_;
  std::atomic<uint64_t> responses_received_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace servebench

#endif  // SERVEBENCH_SRC_CLIENT_H_
