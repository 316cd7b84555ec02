// Closed-loop HTTP client load generator (Section 8.1's "event-driven program
// that simulates multiple HTTP clients ... each simulated client makes
// requests as fast as the server cluster can handle them").
//
// Worker threads replay trace sessions with blocking sockets: P-HTTP mode
// opens one connection per session, sends each batch pipelined, and reads all
// of the batch's responses before the next batch; HTTP/1.0 mode opens one
// connection per request. Responses are verified against the deterministic
// content store (prefix + length), making every bench an end-to-end
// correctness check too.
#ifndef SRC_PROTO_LOAD_GENERATOR_H_
#define SRC_PROTO_LOAD_GENERATOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/stats.h"

namespace lard {

struct LoadGeneratorConfig {
  uint16_t port = 0;           // front-end port
  // Replicated front-end tier: when non-empty, sessions are dealt
  // round-robin across these ports (DNS/VIP spraying) and `port` is ignored.
  std::vector<uint16_t> ports;
  int num_clients = 16;        // concurrent client workers
  bool http10 = false;         // flatten sessions to one request per connection
  bool verify_bodies = true;   // check prefix/length of every response
  int64_t max_sessions = -1;   // cap (-1 = whole trace)
  // Stop issuing new sessions after this long (0 = no limit); in-flight
  // sessions complete.
  int64_t time_limit_ms = 0;
  // Per-socket receive timeout (SO_RCVTIMEO). 0 = block forever. Membership
  // scenarios need this: a *killed* back-end holds its client sockets open
  // but silent, and the affected sessions must fail over to fresh
  // connections instead of hanging the worker.
  int64_t recv_timeout_ms = 0;
  // Record one timestamped latency sample per completed batch (SLO curves:
  // drain/migration storms are judged by per-request p50/p95/p99 over time,
  // not by the mean). Off by default — samples cost memory on long runs.
  bool record_latencies = false;
  // Open-loop arrival mode (> 0): sessions start at Poisson arrival instants
  // at this aggregate rate instead of as fast as the cluster responds. The
  // whole arrival schedule is precomputed from open_loop_seed; workers sleep
  // until each instant and record how late they actually started (the
  // coordinated-omission guard: a saturated cluster shows up as growing
  // start lag and rising tail latency, not as a silently slowed schedule).
  // The closed-loop knobs (num_clients, max_sessions, time_limit_ms) keep
  // their meanings.
  double open_loop_rps = 0.0;
  uint64_t open_loop_seed = 1;
};

// One completed batch: when it finished (offset from load start), how long
// it took, and how many pipelined requests it carried (each request of a
// batch experiences the batch's latency — the pipelining contract).
struct LatencySample {
  int64_t t_ms = 0;
  double latency_ms = 0.0;
  uint32_t requests = 0;
};

struct LoadResult {
  uint64_t sessions = 0;
  uint64_t requests = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_bad = 0;    // non-200 or body mismatch
  uint64_t transport_errors = 0; // connect/read/write failures
  uint64_t bytes_received = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double throughput_mbps = 0.0;
  // Batches are timed with a ns clock; the p95 is over every batch of every
  // worker.
  double mean_batch_latency_ms = 0.0;
  double p95_batch_latency_ms = 0.0;
  // Filled when config.record_latencies: every batch completion across all
  // workers, unordered (callers window/sort as needed).
  std::vector<LatencySample> latency_samples;
  // Open-loop mode only (config.open_loop_rps > 0). Start lag is how far
  // past its scheduled arrival instant each session actually began; sustained
  // growth means the offered rate exceeds what generator + cluster sustain.
  double offered_rps = 0.0;
  double mean_start_lag_ms = 0.0;
  double max_start_lag_ms = 0.0;
  uint64_t late_sessions = 0;  // began > 1ms behind schedule
};

// Replays `trace` against the cluster at 127.0.0.1:config.port and blocks
// until done. Sessions are dealt to workers in trace order.
LoadResult RunLoad(const LoadGeneratorConfig& config, const Trace& trace);

}  // namespace lard

#endif  // SRC_PROTO_LOAD_GENERATOR_H_
