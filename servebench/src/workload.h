// The benchmark's workloads: a synthetic Rice-like trace (src/trace/
// synthetic.h) whose sessions the run's seed draws, the cluster
// configuration it runs against, and the request bytes the client sends.
#ifndef SERVEBENCH_SRC_WORKLOAD_H_
#define SERVEBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/proto/cluster.h"
#include "src/trace/trace.h"

namespace servebench {

// Every workload runs on three back-ends, with disk reads compressed 50-fold
// from the paper's latencies (0.59 ms modelled for an 8 KB read).
constexpr int kNumNodes = 3;
constexpr double kDiskTimeScale = 0.02;

// Each corpus, and a pool of four times a workload's session count, comes
// from this fixed seed; the run's seed draws the sessions replayed (with
// replacement, in draw order). A document tree drawn anew per seed moves
// batch latency by 20-40% from seed to seed (the pages' embedded-object
// counts are geometric and a few popular pages set the tail), which would
// drown the changes the benchmark is meant to show.
constexpr uint64_t kCorpusSeed = 1999;

struct WorkloadSpec {
  std::string name;
  bool http10 = false;        // one connection per request
  uint64_t cache_bytes = 0;   // per back-end
  int low_disk_queue_threshold = 4;
  int64_t num_pages = 0;
  int64_t num_sessions = 0;
  // Warm-up: passes over the session list, dealt to the client threads as a
  // timed pass deals them. A fraction replays a prefix of each thread's share.
  double warmup_passes = 0.0;
  // Per-layer passes (trace runs): sessions per client thread.
  int64_t layer_sessions_per_thread = 0;
};

// Known workload names; false for an unknown one.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

// One session's request bytes, one string per pipelined batch, plus the
// targets of each batch.
struct SessionRequests {
  std::vector<std::string> batch_bytes;
  std::vector<std::vector<lard::TargetId>> batch_targets;
  size_t requests = 0;
};

struct Workload {
  WorkloadSpec spec;
  uint64_t seed = 0;
  lard::Trace trace;  // already flattened for HTTP/1.0 workloads
  std::vector<SessionRequests> sessions;
};

// Generates the trace and request bytes for `spec` and `seed`.
Workload BuildWorkload(const WorkloadSpec& spec, uint64_t seed);

// The cluster configuration every run of `spec` uses: the cluster's defaults
// except for node count, cache size, disk time scale, the extended-LARD
// disk-queue threshold and tracing (every connection sampled when on).
lard::ClusterConfig MakeClusterConfig(const WorkloadSpec& spec, bool tracing,
                                      size_t ring_capacity);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_WORKLOAD_H_
