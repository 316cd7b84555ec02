// Serve-path benchmark: starts the in-process Cluster (src/proto/cluster.h),
// drives it from its own closed-loop client and prints one JSON line of
// metrics. The whole process (cluster and client) runs on one CPU.
//
//   servebench --workload phttp_hot --seed 1 --seconds 8 --trace 0
//
// --trace 0: end-to-end metrics of a timed window on the untraced cluster.
// --trace 1: per-layer metrics: work counts over a fixed pass on the
//            untraced cluster, span stages over the same pass on a cluster
//            that traces every connection, and timings of single functions.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "servebench/src/client.h"
#include "servebench/src/layers.h"
#include "servebench/src/workload.h"
#include "src/proto/cluster.h"

namespace servebench {
namespace {

constexpr int kClientThreads = 4;
// An end-to-end run sets the cluster up kSetups times and measures a part of
// the window on each, split into kSubwindows sub-windows.
constexpr int kSetups = 3;
constexpr int kSubwindows = 16;
constexpr int64_t kQuiesceTimeoutMs = 5000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Confines the calling thread, and so every thread it starts later, to the
// highest-numbered CPU it may run on. Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

// Puts the calling thread, and so every thread it starts later, under
// SCHED_BATCH: a thread that wakes does not preempt the running one, so on
// the one CPU each thread runs until it blocks or its slice ends. Under the
// default policy, wakeup preemption interleaves the threads differently from
// run to run, and throughput and latency spread about twice as wide.
bool UseBatchScheduling() {
  const sched_param param{};
  return sched_setscheduler(0, SCHED_BATCH, &param) == 0;
}

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int count = 0;
  while (readdir(dir) != nullptr) {
    ++count;
  }
  closedir(dir);
  return count;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Request-weighted percentile of batch latencies, in µs: every request of a
// batch sees the batch's latency, so a batch of n requests counts n times.
// The p-th percentile is the smallest latency whose cumulative weight
// reaches p% of all requests.
double PercentileUs(std::vector<std::pair<int64_t, uint32_t>> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  uint64_t total = 0;
  for (const auto& sample : samples) {
    total += sample.second;
  }
  const double rank = p / 100.0 * static_cast<double>(total);
  uint64_t seen = 0;
  for (const auto& [latency_ns, weight] : samples) {
    seen += weight;
    if (static_cast<double>(seen) >= rank) {
      return static_cast<double>(latency_ns) / 1e3;
    }
  }
  return static_cast<double>(samples.back().first) / 1e3;
}

// A started cluster with its workload and warmed-up client.
struct ClusterRun {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<lard::Cluster> cluster;
  std::unique_ptr<Client> client;
  double setup_s = 0.0;
};

// Setup: trace generation, cluster start and warm-up. Warm-up failures are
// reported through `errors`.
std::unique_ptr<ClusterRun> SetUp(const WorkloadSpec& spec, uint64_t seed, bool tracing,
                                  size_t ring_capacity, std::vector<std::string>* errors) {
  const int64_t start_ns = NowNs();
  auto run = std::make_unique<ClusterRun>();
  run->workload = std::make_unique<Workload>(BuildWorkload(spec, seed));
  run->cluster = std::make_unique<lard::Cluster>(MakeClusterConfig(spec, tracing, ring_capacity),
                                                 &run->workload->trace.catalog());
  const lard::Status status = run->cluster->Start();
  if (!status.ok()) {
    errors->push_back("cluster start failed: " + status.ToString());
    return nullptr;
  }
  run->client = std::make_unique<Client>(run->workload.get(), run->cluster->port(),
                                         kClientThreads);
  const uint64_t misses_before = run->cluster->Snapshot().local_misses;
  const PassResult warmup = run->client->RunSessions(static_cast<int64_t>(std::ceil(
      spec.warmup_passes * static_cast<double>(run->workload->sessions.size()) / kClientThreads)));
  std::fprintf(stderr, "warm-up: %llu requests, %llu misses, %.3f s\n",
               static_cast<unsigned long long>(warmup.attempted),
               static_cast<unsigned long long>(run->cluster->Snapshot().local_misses -
                                               misses_before),
               warmup.wall_s);
  if (warmup.failed != 0) {
    errors->push_back("warm-up: " + std::to_string(warmup.failed) + " of " +
                      std::to_string(warmup.attempted) + " requests failed");
  }
  run->setup_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return run;
}

// Run-end invariants on a live cluster whose clients have all finished.
void CheckInvariants(ClusterRun* run, std::vector<std::string>* errors) {
  lard::Cluster* cluster = run->cluster.get();
  // The dispatcher hears of closes from the back-ends; give it time.
  size_t open = 0;
  double load = 0.0;
  const int64_t deadline = NowNs() + kQuiesceTimeoutMs * 1000000;
  while (true) {
    cluster->InspectReplica(0, [&](const lard::FrontEnd& fe) {
      open = fe.dispatcher().open_connections();
      load = 0.0;
      for (int node = 0; node < kNumNodes; ++node) {
        load += fe.dispatcher().NodeLoad(node);
      }
    });
    if ((open == 0 && load == 0.0) || NowNs() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (open != 0 || load != 0.0) {
    errors->push_back("dispatcher did not drain: open connections " + std::to_string(open) +
                      ", load " + std::to_string(load));
  }
  const lard::ClusterSnapshot snapshot = cluster->Snapshot();
  uint64_t per_node = 0;
  for (const uint64_t requests : snapshot.requests_per_node) {
    per_node += requests;
  }
  if (per_node != run->client->responses_received()) {
    errors->push_back("per-node request counts sum to " + std::to_string(per_node) +
                      ", client received " + std::to_string(run->client->responses_received()));
  }
  // A lateral fetch is answered by the peer, which counts it as its own hit
  // or miss; so hits + misses equal the requests served, lateral or not.
  if (snapshot.local_hits + snapshot.local_misses != snapshot.requests_served ||
      snapshot.lateral_out > snapshot.requests_served || snapshot.not_found != 0) {
    errors->push_back("hits " + std::to_string(snapshot.local_hits) + " + misses " +
                      std::to_string(snapshot.local_misses) + " (lateral " +
                      std::to_string(snapshot.lateral_out) + ", not found " +
                      std::to_string(snapshot.not_found) + ") do not account for " +
                      std::to_string(snapshot.requests_served) + " requests served");
  }
  const uint64_t violations = cluster->frontend().pinning_violations();
  if (violations != 0) {
    errors->push_back("pinning violations: " + std::to_string(violations));
  }
}

// Stops and destroys the cluster (the workload stays) and checks that every
// fd the run opened is closed again.
void TearDown(ClusterRun* run, int fds_before, std::vector<std::string>* errors) {
  run->client.reset();
  run->cluster->Stop();
  run->cluster.reset();
  const int fds_after = CountOpenFds();
  if (fds_after != fds_before) {
    errors->push_back("open fds " + std::to_string(fds_after) + " after the run, " +
                      std::to_string(fds_before) + " before");
  }
}

// End-to-end figures of the timed parts of a run. Throughput and CPU per
// request are computed per sub-window, and the median over the sub-windows of
// all parts is reported, so a disturbed second moves a few sub-windows rather
// than the result. The latency percentiles take every batch of every part, so
// that even the phttp_cold p99 has hundreds of requests beyond it.
struct WindowMetrics {
  double throughput_rps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double cpu_us_per_req = 0.0;  // CPU of every thread but the client's
};

WindowMetrics MeasureWindow(const std::vector<PassResult>& parts) {
  std::vector<double> rps, cpu;
  std::vector<std::pair<int64_t, uint32_t>> latencies;
  uint64_t requests = 0;
  for (const PassResult& part : parts) {
    std::fprintf(stderr, "sub-window req/s:");
    for (size_t k = 1; k < part.ticks.size(); ++k) {
      const CpuTick& begin = part.ticks[k - 1];
      const CpuTick& end = part.ticks[k];
      uint64_t passed = 0;
      for (const BatchSample& batch : part.batches) {
        if (batch.done_ns > begin.t_ns && batch.done_ns <= end.t_ns) {
          passed += batch.passed;
        }
      }
      const double server_cpu_us =
          static_cast<double>((end.process_cpu_ns - begin.process_cpu_ns) -
                              (end.client_cpu_ns - begin.client_cpu_ns)) / 1e3;
      rps.push_back(static_cast<double>(passed) * 1e9 /
                    static_cast<double>(end.t_ns - begin.t_ns));
      cpu.push_back(server_cpu_us / std::max<double>(1.0, static_cast<double>(passed)));
      std::fprintf(stderr, " %.0f", rps.back());
    }
    std::fprintf(stderr, "\n");
    if (part.ticks.size() >= 2) {
      const CpuTick& first = part.ticks.front();
      const CpuTick& last = part.ticks.back();
      const double ticks = static_cast<double>(last.t_ns - first.t_ns) / 1e9 *
                           static_cast<double>(sysconf(_SC_CLK_TCK));
      std::fprintf(stderr, "  CPU idle %.1f%%, stolen by the host %.1f%%\n",
                   100.0 * static_cast<double>(last.cpu_idle_ticks - first.cpu_idle_ticks) / ticks,
                   100.0 * static_cast<double>(last.cpu_steal_ticks - first.cpu_steal_ticks) /
                       ticks);
    }
    for (const BatchSample& batch : part.batches) {
      latencies.emplace_back(batch.latency_ns, batch.requests);
      requests += batch.requests;
    }
  }
  std::fprintf(stderr, "latency samples: %zu batches, %llu requests; us at p10 %.0f, p25 %.0f, "
               "p50 %.0f, p60 %.0f, p75 %.0f, p90 %.0f\n", latencies.size(),
               static_cast<unsigned long long>(requests), PercentileUs(latencies, 10.0),
               PercentileUs(latencies, 25.0), PercentileUs(latencies, 50.0),
               PercentileUs(latencies, 60.0),
               PercentileUs(latencies, 75.0), PercentileUs(latencies, 90.0));
  WindowMetrics metrics;
  if (!rps.empty()) {
    metrics.throughput_rps = Median(rps);
    metrics.cpu_us_per_req = Median(cpu);
  }
  metrics.latency_p50_us = PercentileUs(latencies, 50.0);
  metrics.latency_p99_us = PercentileUs(latencies, 99.0);
  return metrics;
}

// The corpus and session make-up, on stderr.
void DescribeWorkload(const Workload& workload) {
  const lard::TargetCatalog& catalog = workload.trace.catalog();
  std::vector<double> sizes;
  size_t batches = 0;
  for (const SessionRequests& session : workload.sessions) {
    batches += session.batch_targets.size();
    for (const auto& targets : session.batch_targets) {
      for (const lard::TargetId target : targets) {
        sizes.push_back(static_cast<double>(catalog.Get(target).size_bytes));
      }
    }
  }
  double total = 0.0;
  for (const double size : sizes) {
    total += size;
  }
  std::fprintf(stderr,
               "workload %s seed %llu: %zu targets, %.1f MB footprint, %zu sessions, %zu "
               "requests, %.2f requests/connection, %.2f requests/batch, body median %.0f B, "
               "mean %.0f B\n",
               workload.spec.name.c_str(), static_cast<unsigned long long>(workload.seed),
               catalog.size(), static_cast<double>(catalog.TotalBytes()) / 1e6,
               workload.sessions.size(), sizes.size(),
               static_cast<double>(sizes.size()) / static_cast<double>(workload.sessions.size()),
               static_cast<double>(sizes.size()) / static_cast<double>(batches), Median(sizes),
               total / static_cast<double>(sizes.size()));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void ReportPass(const char* label, const PassResult& result) {
  std::fprintf(stderr,
               "%s: %llu requests, %llu passed, %llu failed, %llu broken connections, "
               "%llu connections, %zu batches, %.3f s\n",
               label, static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.passed),
               static_cast<unsigned long long>(result.failed),
               static_cast<unsigned long long>(result.transport_errors),
               static_cast<unsigned long long>(result.connections), result.batches.size(),
               result.wall_s);
  for (int v = 1; v < static_cast<int>(Verdict::kCount); ++v) {
    if (result.verdicts[v] != 0) {
      std::fprintf(stderr, "  %s: %llu\n", VerdictName(static_cast<Verdict>(v)),
                   static_cast<unsigned long long>(result.verdicts[v]));
    }
  }
}

bool ReportErrors(const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    std::fprintf(stderr, "invariant: %s\n", error.c_str());
  }
  return errors.empty();
}

// Each set-up is followed by a third of the window on its cluster, so the
// window is spread over the whole run rather than taken in one stretch.
int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  std::vector<std::string> errors;
  const int fds_before = CountOpenFds();
  std::vector<double> setup_s;
  std::vector<PassResult> parts;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    std::unique_ptr<ClusterRun> run = SetUp(spec, args.seed, /*tracing=*/false, 0, &errors);
    if (run == nullptr) {
      ReportErrors(errors);
      return 1;
    }
    setup_s.push_back(run->setup_s);
    const lard::ClusterSnapshot snap_before = run->cluster->Snapshot();
    parts.push_back(run->client->RunFor(args.seconds / kSetups, kSubwindows));
    const lard::ClusterSnapshot snap_after = run->cluster->Snapshot();
    ReportPass("window part", parts.back());
    std::fprintf(stderr, "window part: %llu hits, %llu misses, %llu lateral, %llu handoffs\n",
                 static_cast<unsigned long long>(snap_after.local_hits - snap_before.local_hits),
                 static_cast<unsigned long long>(snap_after.local_misses -
                                                 snap_before.local_misses),
                 static_cast<unsigned long long>(snap_after.lateral_out - snap_before.lateral_out),
                 static_cast<unsigned long long>(snap_after.handoffs - snap_before.handoffs));
    CheckInvariants(run.get(), &errors);
    TearDown(run.get(), fds_before, &errors);
    workload = std::move(run->workload);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const WindowMetrics window = MeasureWindow(parts);
  DescribeWorkload(*workload);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult& part : parts) {
    attempted += part.attempted;
    failed += part.failed;
  }
  const bool correct = ReportErrors(errors) && failed == 0;
  PrintResult(correct, attempted, failed,
              {{"throughput_rps", window.throughput_rps, "1/s"},
               {"latency_p50_us", window.latency_p50_us, "us"},
               {"latency_p99_us", window.latency_p99_us, "us"},
               {"cpu_us_per_req", window.cpu_us_per_req, "us"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"}});
  return 0;
}

// Upper bound on the spans one traced pass over `sessions` records: per
// request a serve, a flush and a disk wait or lateral fetch; per batch a
// consult; per connection accept, parse, policy, handoff, adopt and close.
size_t SpanBound(const Workload& workload, const std::vector<size_t>& sessions) {
  size_t bound = 1024;
  for (const size_t index : sessions) {
    const SessionRequests& session = workload.sessions[index];
    bound += 3 * session.requests + session.batch_bytes.size() + 6;
  }
  return bound;
}

std::vector<std::string> LoopHistogramNames() {
  std::vector<std::string> names = {"lard_loop_wakeup_delay_us{loop=\"fe0\"}"};
  for (int node = 0; node < kNumNodes; ++node) {
    names.push_back("lard_loop_wakeup_delay_us{loop=\"be" + std::to_string(node) + "\"}");
  }
  return names;
}

int RunLayers(const WorkloadSpec& spec, const Args& args) {
  std::vector<std::string> errors;
  const int fds_before = CountOpenFds();
  const int64_t per_thread = spec.layer_sessions_per_thread;

  // Work counts: a fixed pass on the untraced cluster.
  std::unique_ptr<ClusterRun> untraced = SetUp(spec, args.seed, false, 0, &errors);
  if (untraced == nullptr) {
    ReportErrors(errors);
    return 1;
  }
  const std::vector<size_t> pass_sessions = untraced->client->NextSessions(per_thread);
  const std::vector<std::string> loops = LoopHistogramNames();
  const lard::ClusterSnapshot snap_before = untraced->cluster->Snapshot();
  const HistogramSum wakeups_before = SnapshotHistograms(untraced->cluster->metrics(), loops);
  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  const PassResult plain = untraced->client->RunSessions(per_thread);
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);
  const HistogramSum wakeups_after = SnapshotHistograms(untraced->cluster->metrics(), loops);
  const lard::ClusterSnapshot snap_after = untraced->cluster->Snapshot();
  ReportPass("untraced pass", plain);
  CheckInvariants(untraced.get(), &errors);
  TearDown(untraced.get(), fds_before, &errors);
  // Span stages: the same pass on a cluster tracing every connection, with
  // rings large enough that the pass overwrites none of its own spans.
  const size_t capacity = SpanBound(*untraced->workload, pass_sessions);
  untraced.reset();
  std::unique_ptr<ClusterRun> traced = SetUp(spec, args.seed, true, capacity, &errors);
  if (traced == nullptr) {
    ReportErrors(errors);
    return 1;
  }
  std::vector<uint64_t> recorded_before;
  for (const lard::TraceRingSnapshot& ring : traced->cluster->tracer()->SnapshotAll()) {
    recorded_before.push_back(ring.recorded);
  }
  const int64_t window_start_us = lard::TraceNowUs();
  const PassResult with_spans = traced->client->RunSessions(per_thread);
  const std::vector<lard::TraceRingSnapshot> rings = traced->cluster->tracer()->SnapshotAll();
  ReportPass("traced pass", with_spans);
  for (size_t i = 0; i < rings.size(); ++i) {
    const uint64_t before = i < recorded_before.size() ? recorded_before[i] : 0;
    if (rings[i].recorded - before > rings[i].capacity) {
      errors.push_back("trace ring " + rings[i].name + " overwrote spans of the window");
    }
  }
  const SpanStages stages = AggregateSpans(rings, window_start_us);
  CheckInvariants(traced.get(), &errors);
  TearDown(traced.get(), fds_before, &errors);
  std::fprintf(stderr,
               "spans: %llu traces, %llu requests, %llu flush spans (recorded with zero "
               "duration, so no flush time is reported)\n",
               static_cast<unsigned long long>(stages.traces),
               static_cast<unsigned long long>(stages.requests),
               static_cast<unsigned long long>(stages.flush_spans));

  // Single functions, on the same sessions, with the cluster gone.
  const FunctionTimings timings = TimeFunctions(*traced->workload, pass_sessions);
  DescribeWorkload(*traced->workload);

  const double served = std::max<double>(
      1.0, static_cast<double>(snap_after.requests_served - snap_before.requests_served));
  const auto per_kreq = [&](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before) * 1000.0 / served;
  };
  const double span_requests = std::max<double>(1.0, static_cast<double>(stages.requests));
  const double plain_rps = static_cast<double>(plain.passed) / plain.wall_s;
  const double traced_rps = static_cast<double>(with_spans.passed) / with_spans.wall_s;
  const double ctx_switches =
      static_cast<double>((usage_after.ru_nvcsw - usage_before.ru_nvcsw) +
                          (usage_after.ru_nivcsw - usage_before.ru_nivcsw));
  const bool correct = ReportErrors(errors) && plain.failed == 0 && with_spans.failed == 0;
  PrintResult(
      correct, plain.attempted + with_spans.attempted, plain.failed + with_spans.failed,
      {{"http.parse_ns_per_req", timings.parse_ns_per_req, "ns"},
       {"proto.body_ns_per_kb", timings.body_ns_per_kb, "ns/KB"},
       {"http.serialize_ns_per_kb", timings.serialize_ns_per_kb, "ns/KB"},
       {"core.dispatch_ns_per_conn", timings.dispatch_ns_per_conn, "ns"},
       {"proto.handoff_codec_ns", timings.handoff_codec_ns, "ns"},
       {"net.post_cross_ns", timings.post_cross_ns, "ns"},
       {"core.lru_ns_per_op", timings.lru_ns_per_op, "ns"},
       {"proto.disk_fidelity", timings.disk_fidelity, "ratio"},
       {"span.accept_us", stages.accept_us / span_requests, "us"},
       {"span.parse_us", stages.parse_us / span_requests, "us"},
       {"span.policy_us", stages.policy_us / span_requests, "us"},
       {"span.handoff_us", stages.handoff_us / span_requests, "us"},
       {"span.adopt_us", stages.adopt_us / span_requests, "us"},
       {"span.serve_self_us", stages.serve_self_us / span_requests, "us"},
       {"span.disk_wait_us", stages.disk_wait_us / span_requests, "us"},
       {"span.lateral_us", stages.lateral_us / span_requests, "us"},
       {"proto.hits_per_kreq", per_kreq(snap_after.local_hits, snap_before.local_hits), "count"},
       {"proto.misses_per_kreq", per_kreq(snap_after.local_misses, snap_before.local_misses),
        "count"},
       {"proto.lateral_per_kreq", per_kreq(snap_after.lateral_out, snap_before.lateral_out),
        "count"},
       {"proto.handoffs_per_kreq", per_kreq(snap_after.handoffs, snap_before.handoffs), "count"},
       {"proto.conns_per_kreq", per_kreq(snap_after.connections, snap_before.connections),
        "count"},
       {"net.loop_wakeup_p99_us", WindowPercentile(wakeups_before, wakeups_after, 99.0), "us"},
       {"proc.ctx_switches_per_req", ctx_switches / served, "count"},
       {"trace.untraced_rps", plain_rps, "1/s"},
       {"trace.traced_rps", traced_rps, "1/s"},
       {"trace.overhead_pct", 100.0 * (plain_rps - traced_rps) / plain_rps, "%"}});
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec) ||
      (args.trace != 0 && args.trace != 1)) {
    std::string names;
    for (const std::string& name : WorkloadNames()) {
      names += (names.empty() ? "" : "|") + name;
    }
    std::fprintf(stderr,
                 "usage: servebench --workload %s --seed N --seconds S --trace 0|1\n",
                 names.c_str());
    return 2;
  }
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "could not confine the process to one CPU: %s\n", std::strerror(errno));
    return 1;
  }
  if (!UseBatchScheduling()) {
    std::fprintf(stderr, "could not switch to SCHED_BATCH: %s\n", std::strerror(errno));
    return 1;
  }
  std::fprintf(stderr, "servebench %s seed %llu on CPU %d\n", spec.name.c_str(),
               static_cast<unsigned long long>(args.seed), cpu);
  return args.trace == 0 ? RunEndToEnd(spec, args) : RunLayers(spec, args);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
