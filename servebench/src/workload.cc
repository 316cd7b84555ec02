#include "servebench/src/workload.h"

#include <random>

#include "src/trace/synthetic.h"

namespace servebench {
namespace {

std::vector<WorkloadSpec> AllWorkloads() {
  WorkloadSpec phttp_hot;
  phttp_hot.name = "phttp_hot";
  phttp_hot.cache_bytes = 32ull * 1024 * 1024;  // the cluster default
  phttp_hot.num_pages = 80;
  phttp_hot.num_sessions = 1200;
  phttp_hot.warmup_passes = 3;
  phttp_hot.layer_sessions_per_thread = 900;

  WorkloadSpec http10_hot = phttp_hot;
  http10_hot.name = "http10_hot";
  http10_hot.http10 = true;
  http10_hot.warmup_passes = 2;
  http10_hot.layer_sessions_per_thread = 3000;

  WorkloadSpec phttp_cold;
  phttp_cold.name = "phttp_cold";
  phttp_cold.cache_bytes = 3ull * 1024 * 1024;
  phttp_cold.num_pages = 600;
  phttp_cold.num_sessions = 8000;
  phttp_cold.low_disk_queue_threshold = 1;
  // 200 sessions: about 3000 requests, over twice the aggregate cache in bytes.
  phttp_cold.warmup_passes = 0.025;
  phttp_cold.layer_sessions_per_thread = 120;

  return {phttp_hot, http10_hot, phttp_cold};
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& candidate : AllWorkloads()) {
    if (candidate.name == name) {
      *spec = candidate;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    names.push_back(spec.name);
  }
  return names;
}

Workload BuildWorkload(const WorkloadSpec& spec, uint64_t seed) {
  Workload workload;
  workload.spec = spec;
  workload.seed = seed;
  lard::SyntheticTraceConfig config;
  config.seed = kCorpusSeed;
  config.num_pages = spec.num_pages;
  config.num_sessions = spec.num_sessions * 4;
  config.max_size_bytes = 256 * 1024;
  const lard::Trace pool = lard::GenerateSyntheticTrace(config);
  workload.trace.catalog() = pool.catalog();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, pool.sessions().size() - 1);
  for (int64_t i = 0; i < spec.num_sessions; ++i) {
    workload.trace.sessions().push_back(pool.sessions()[pick(rng)]);
  }
  if (spec.http10) {
    workload.trace = workload.trace.ToHttp10();
  }

  const lard::TargetCatalog& catalog = workload.trace.catalog();
  const char* version = spec.http10 ? " HTTP/1.0\r\n" : " HTTP/1.1\r\n";
  workload.sessions.reserve(workload.trace.sessions().size());
  for (const lard::TraceSession& session : workload.trace.sessions()) {
    SessionRequests requests;
    for (size_t b = 0; b < session.batches.size(); ++b) {
      const lard::TraceBatch& batch = session.batches[b];
      if (batch.targets.empty()) {
        continue;
      }
      std::string bytes;
      for (size_t i = 0; i < batch.targets.size(); ++i) {
        bytes += "GET ";
        bytes += catalog.Get(batch.targets[i]).path;
        bytes += version;
        bytes += "Host: cluster\r\n";
        // P-HTTP: the last request of the session closes the connection.
        if (!spec.http10 && b + 1 == session.batches.size() && i + 1 == batch.targets.size()) {
          bytes += "Connection: close\r\n";
        }
        bytes += "\r\n";
      }
      requests.batch_bytes.push_back(std::move(bytes));
      requests.batch_targets.push_back(batch.targets);
      requests.requests += batch.targets.size();
    }
    workload.sessions.push_back(std::move(requests));
  }
  return workload;
}

lard::ClusterConfig MakeClusterConfig(const WorkloadSpec& spec, bool tracing,
                                      size_t ring_capacity) {
  lard::ClusterConfig config;
  config.num_nodes = kNumNodes;
  config.backend_cache_bytes = spec.cache_bytes;
  config.disk_time_scale = kDiskTimeScale;
  config.params.low_disk_queue_threshold = spec.low_disk_queue_threshold;
  config.tracing_enabled = tracing;
  if (tracing) {
    config.trace_sample_every = 1;
    config.trace_ring_capacity = ring_capacity;
  }
  return config;
}

}  // namespace servebench
