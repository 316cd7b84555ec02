#include "src/proto/load_generator.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <random>
#include <thread>

#include "src/http/response_parser.h"
#include "src/net/socket.h"
#include "src/proto/content_store.h"
#include "src/util/logging.h"
#include "src/util/mutex.h"

namespace lard {
namespace {

// Batches on the hot path take ~100 µs, so they are timed in ns: a ms clock
// would read every one as 0 or 1.
int64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Per-worker tallies, merged under a mutex at the end.
struct WorkerStats {
  uint64_t sessions = 0;
  uint64_t requests = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_bad = 0;
  uint64_t transport_errors = 0;
  uint64_t bytes_received = 0;
  StreamingStats batch_latency_ms;
  std::vector<double> batch_latencies_ms;  // pooled across workers for p95
  std::vector<LatencySample> samples;  // only when config.record_latencies
  StreamingStats start_lag_ms;         // open-loop mode: schedule slippage
  double max_start_lag_ms = 0.0;
  uint64_t late_sessions = 0;
};

// The open-loop arrival schedule: cumulative Poisson instants (exponential
// inter-arrivals at `rps`), fixed before any worker starts so a slow cluster
// cannot stretch it (that is the open- vs closed-loop distinction).
std::vector<double> BuildArrivalSchedule(size_t count, double rps, uint64_t seed) {
  std::vector<double> arrivals_ms(count, 0.0);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_ms(rps / 1000.0);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += gap_ms(rng);
    arrivals_ms[i] = t;
  }
  return arrivals_ms;
}

// Blocking read of `count` pipelined responses.
bool ReadResponses(int fd, size_t count, ResponseParser* parser,
                   std::vector<HttpResponse>* responses) {
  responses->clear();
  char buf[64 * 1024];
  while (responses->size() < count) {
    // lard-lint: allow(blocking-call) the load generator is a deliberately
    // blocking client running on its own worker threads, not an event loop.
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (parser->Feed(std::string_view(buf, static_cast<size_t>(n)), responses) ==
          ResponseParser::State::kError) {
        return false;
      }
      continue;
    }
    if (n == 0) {
      return false;  // premature EOF
    }
    if (errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

void ApplyRecvTimeout(int fd, int64_t timeout_ms) {
  if (timeout_ms <= 0) {
    return;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

class Worker {
 public:
  Worker(const LoadGeneratorConfig* config, const Trace* trace, int64_t load_start_ns)
      : config_(config), trace_(trace), load_start_ns_(load_start_ns) {}

  void RunSession(const TraceSession& session, size_t session_index, WorkerStats* stats) {
    port_ = config_->ports.empty() ? config_->port
                                   : config_->ports[session_index % config_->ports.size()];
    if (config_->http10) {
      RunHttp10Session(session, stats);
    } else {
      RunPhttpSession(session, stats);
    }
    ++stats->sessions;
  }

 private:
  bool Verify(const HttpResponse& response, TargetId target, WorkerStats* stats) const {
    const Target& entry = trace_->catalog().Get(target);
    stats->bytes_received += response.body.size();
    if (response.status != 200 || response.body.size() != entry.size_bytes) {
      return false;
    }
    if (!config_->verify_bodies) {
      return true;
    }
    // Prefix check is enough: the body generator embeds path and true size at
    // the front, so a mixed-up response cannot pass.
    std::string header = entry.path + "#" + std::to_string(entry.size_bytes) + "#";
    if (header.size() > entry.size_bytes) {
      header.resize(entry.size_bytes);
    }
    return response.body.compare(0, header.size(), header) == 0;
  }

  void RecordLatency(int64_t start_ns, int64_t end_ns, size_t requests,
                     WorkerStats* stats) const {
    const double latency_ms = NsToMs(end_ns - start_ns);
    stats->batch_latency_ms.Add(latency_ms);
    stats->batch_latencies_ms.push_back(latency_ms);
    if (config_->record_latencies) {
      stats->samples.push_back({(end_ns - load_start_ns_) / 1'000'000, latency_ms,
                                static_cast<uint32_t>(requests)});
    }
  }

  void RunPhttpSession(const TraceSession& session, WorkerStats* stats) {
    auto fd = ConnectTcp(port_);
    if (!fd.ok()) {
      ++stats->transport_errors;
      return;
    }
    (void)SetTcpNoDelay(fd.value().get());
    ApplyRecvTimeout(fd.value().get(), config_->recv_timeout_ms);
    ResponseParser parser;
    std::vector<HttpResponse> responses;
    for (size_t b = 0; b < session.batches.size(); ++b) {
      const TraceBatch& batch = session.batches[b];
      if (batch.targets.empty()) {
        continue;
      }
      std::string out;
      for (const TargetId target : batch.targets) {
        out += "GET " + trace_->catalog().Get(target).path + " HTTP/1.1\r\nHost: cluster\r\n";
        // Last request of the last batch announces connection close.
        if (b + 1 == session.batches.size() && target == batch.targets.back()) {
          out += "Connection: close\r\n";
        }
        out += "\r\n";
      }
      const int64_t start = NowNs();
      stats->requests += batch.targets.size();
      if (!SendAll(fd.value().get(), out) ||
          !ReadResponses(fd.value().get(), batch.targets.size(), &parser, &responses)) {
        stats->transport_errors += 1;
        return;
      }
      RecordLatency(start, NowNs(), batch.targets.size(), stats);
      for (size_t i = 0; i < responses.size(); ++i) {
        if (Verify(responses[i], batch.targets[i], stats)) {
          ++stats->responses_ok;
        } else {
          ++stats->responses_bad;
        }
      }
    }
  }

  void RunHttp10Session(const TraceSession& session, WorkerStats* stats) {
    for (const auto& batch : session.batches) {
      for (const TargetId target : batch.targets) {
        auto fd = ConnectTcp(port_);
        if (!fd.ok()) {
          ++stats->transport_errors;
          continue;
        }
        (void)SetTcpNoDelay(fd.value().get());
        ApplyRecvTimeout(fd.value().get(), config_->recv_timeout_ms);
        const std::string out =
            "GET " + trace_->catalog().Get(target).path + " HTTP/1.0\r\nHost: cluster\r\n\r\n";
        ResponseParser parser;
        std::vector<HttpResponse> responses;
        const int64_t start = NowNs();
        ++stats->requests;
        if (!SendAll(fd.value().get(), out) ||
            !ReadResponses(fd.value().get(), 1, &parser, &responses)) {
          ++stats->transport_errors;
          continue;
        }
        RecordLatency(start, NowNs(), 1, stats);
        if (Verify(responses[0], target, stats)) {
          ++stats->responses_ok;
        } else {
          ++stats->responses_bad;
        }
      }
    }
  }

  const LoadGeneratorConfig* config_;
  const Trace* trace_;
  int64_t load_start_ns_ = 0;
  uint16_t port_ = 0;  // this session's front-end
};

}  // namespace

LoadResult RunLoad(const LoadGeneratorConfig& config, const Trace& trace) {
  LARD_CHECK(config.port != 0 || !config.ports.empty());
  for (const uint16_t port : config.ports) {
    LARD_CHECK(port != 0) << "front-end port list contains an unbound port";
  }
  LARD_CHECK(config.num_clients > 0);

  const size_t session_limit =
      config.max_sessions < 0
          ? trace.sessions().size()
          : std::min<size_t>(trace.sessions().size(), static_cast<size_t>(config.max_sessions));

  std::atomic<size_t> next_session{0};
  std::atomic<bool> time_up{false};
  const bool open_loop = config.open_loop_rps > 0.0;
  const std::vector<double> arrivals_ms =
      open_loop ? BuildArrivalSchedule(session_limit, config.open_loop_rps, config.open_loop_seed)
                : std::vector<double>();
  const auto open_loop_epoch = std::chrono::steady_clock::now();
  const int64_t start_ns = NowNs();

  Mutex merge_mutex;
  WorkerStats merged;
  StreamingStats merged_latency;
  PercentileTracker merged_p;

  auto worker_fn = [&]() {
    Worker worker(&config, &trace, start_ns);
    WorkerStats stats;
    while (!time_up.load(std::memory_order_relaxed)) {
      const size_t index = next_session.fetch_add(1, std::memory_order_relaxed);
      if (index >= session_limit) {
        break;
      }
      if (open_loop) {
        const auto due = open_loop_epoch + std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(arrivals_ms[index]));
        // lard-lint: allow(blocking-call) deliberate pacing on a client thread.
        std::this_thread::sleep_until(due);
        const double lag_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - due)
                .count();
        stats.start_lag_ms.Add(lag_ms);
        stats.max_start_lag_ms = std::max(stats.max_start_lag_ms, lag_ms);
        if (lag_ms > 1.0) {
          ++stats.late_sessions;
        }
      }
      worker.RunSession(trace.sessions()[index], index, &stats);
      if (config.time_limit_ms > 0 && NsToMs(NowNs() - start_ns) > config.time_limit_ms) {
        time_up.store(true, std::memory_order_relaxed);
      }
    }
    MutexLock lock(&merge_mutex);
    merged.sessions += stats.sessions;
    merged.requests += stats.requests;
    merged.responses_ok += stats.responses_ok;
    merged.responses_bad += stats.responses_bad;
    merged.transport_errors += stats.transport_errors;
    merged.bytes_received += stats.bytes_received;
    merged_latency.Merge(stats.batch_latency_ms);
    merged.start_lag_ms.Merge(stats.start_lag_ms);
    merged.max_start_lag_ms = std::max(merged.max_start_lag_ms, stats.max_start_lag_ms);
    merged.late_sessions += stats.late_sessions;
    merged.samples.insert(merged.samples.end(), stats.samples.begin(), stats.samples.end());
    for (const double latency_ms : stats.batch_latencies_ms) {
      merged_p.Add(latency_ms);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.num_clients));
  for (int i = 0; i < config.num_clients; ++i) {
    threads.emplace_back(worker_fn);
  }
  for (auto& thread : threads) {
    thread.join();
  }

  LoadResult result;
  result.sessions = merged.sessions;
  result.requests = merged.requests;
  result.responses_ok = merged.responses_ok;
  result.responses_bad = merged.responses_bad;
  result.transport_errors = merged.transport_errors;
  result.bytes_received = merged.bytes_received;
  result.wall_seconds = NsToMs(NowNs() - start_ns) / 1000.0;
  if (result.wall_seconds > 0.0) {
    result.throughput_rps = static_cast<double>(result.responses_ok + result.responses_bad) /
                            result.wall_seconds;
    result.throughput_mbps =
        8.0 * static_cast<double>(result.bytes_received) / 1e6 / result.wall_seconds;
  }
  result.mean_batch_latency_ms = merged_latency.mean();
  result.p95_batch_latency_ms = merged_p.Percentile(95.0);
  result.latency_samples = std::move(merged.samples);
  if (open_loop) {
    result.offered_rps = config.open_loop_rps;
    result.mean_start_lag_ms = merged.start_lag_ms.mean();
    result.max_start_lag_ms = merged.max_start_lag_ms;
    result.late_sessions = merged.late_sessions;
  }
  return result;
}

}  // namespace lard
