#include "servebench/src/layers.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <unordered_map>

#include "servebench/src/client.h"
#include "src/core/dispatcher.h"
#include "src/core/lru_cache.h"
#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/net/event_loop.h"
#include "src/proto/content_store.h"
#include "src/proto/control_protocol.h"
#include "src/proto/disk_gate.h"
#include "src/sim/cost_model.h"

namespace servebench {
namespace {

constexpr int kRounds = 5;
// Input caps per round, so a timing takes tens of milliseconds.
constexpr size_t kMaxRequests = 20000;
constexpr size_t kMaxBodies = 3000;
constexpr size_t kDiskReads = 24;

// Results of timed loops land here so the compiler cannot drop the loops.
std::atomic<size_t> g_sink{0};

// Median over kRounds timed rounds (after one untimed round) of the round's
// time divided by `units`.
double MedianNsPer(const std::function<void()>& prepare, const std::function<void()>& round,
                   double units) {
  std::vector<double> samples;
  for (int r = 0; r <= kRounds; ++r) {
    prepare();
    const int64_t start = NowNs();
    round();
    const int64_t elapsed = NowNs() - start;
    if (r > 0) {
      samples.push_back(static_cast<double>(elapsed) / std::max(units, 1.0));
    }
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Runs an EventLoop on its own thread for the lifetime of the object.
class LoopThread {
 public:
  LoopThread() : thread_([this]() { loop_.Run(); }) {}
  ~LoopThread() {
    loop_.Stop();
    thread_.join();
  }
  lard::EventLoop* loop() { return &loop_; }

 private:
  lard::EventLoop loop_;
  std::thread thread_;
};

// Posts `task` to the loop and waits for it to have run.
void RunOnLoop(lard::EventLoop* loop, const std::function<void()>& task) {
  std::atomic<bool> done{false};
  loop->Post([&]() {
    task();
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::yield();
  }
}

}  // namespace

FunctionTimings TimeFunctions(const Workload& workload, const std::vector<size_t>& sessions) {
  const lard::TargetCatalog& catalog = workload.trace.catalog();
  FunctionTimings timings;

  // The request stream, in replay order.
  std::vector<lard::TargetId> stream;
  size_t parse_sessions = 0;
  for (const size_t index : sessions) {
    if (stream.size() >= kMaxRequests) {
      break;
    }
    for (const auto& targets : workload.sessions[index].batch_targets) {
      stream.insert(stream.end(), targets.begin(), targets.end());
    }
    ++parse_sessions;
  }

  // http: RequestParser::Feed over the bytes the client sends, one parser
  // per connection.
  {
    std::vector<lard::HttpRequest> parsed;
    size_t requests = 0;
    for (size_t s = 0; s < parse_sessions; ++s) {
      requests += workload.sessions[sessions[s]].requests;
    }
    timings.parse_ns_per_req = MedianNsPer(
        []() {},
        [&]() {
          for (size_t s = 0; s < parse_sessions; ++s) {
            lard::RequestParser parser;
            for (const std::string& bytes : workload.sessions[sessions[s]].batch_bytes) {
              parsed.clear();
              (void)parser.Feed(bytes, &parsed);
            }
          }
        },
        static_cast<double>(requests));
  }

  // proto: ContentStore::BodyFor; http: HttpResponse::Serialize of the
  // response the back-end builds around it.
  {
    const lard::ContentStore store(&catalog);
    const size_t count = std::min(stream.size(), kMaxBodies);
    double kb = 0.0;
    for (size_t i = 0; i < count; ++i) {
      kb += static_cast<double>(catalog.Get(stream[i]).size_bytes) / 1024.0;
    }
    size_t sink = 0;
    timings.body_ns_per_kb = MedianNsPer(
        []() {},
        [&]() {
          for (size_t i = 0; i < count; ++i) {
            sink += store.BodyFor(stream[i]).size();
          }
        },
        kb);
    std::vector<lard::HttpResponse> responses(count);
    for (size_t i = 0; i < count; ++i) {
      lard::HttpResponse& response = responses[i];
      response.version = workload.spec.http10 ? lard::HttpVersion::kHttp10
                                              : lard::HttpVersion::kHttp11;
      response.status = 200;
      response.reason = lard::ReasonPhrase(200);
      response.headers.Add("Server", "lard-be0");
      response.headers.Add("Content-Type", "application/octet-stream");
      response.body = store.BodyFor(stream[i]);
    }
    timings.serialize_ns_per_kb = MedianNsPer(
        []() {},
        [&]() {
          for (const lard::HttpResponse& response : responses) {
            sink += response.Serialize().size();
          }
        },
        kb);
    g_sink += sink;
  }

  // core: a standalone dispatcher with the workload's node count; one
  // connection per session. Node 0's share of the stream feeds the LRU timing.
  std::vector<lard::TargetId> node0_stream;
  {
    lard::DispatcherConfig config;
    config.num_nodes = kNumNodes;
    config.virtual_cache_bytes = workload.spec.cache_bytes;
    config.params.low_disk_queue_threshold = workload.spec.low_disk_queue_threshold;
    const lard::NullBackendStats stats;
    std::unique_ptr<lard::Dispatcher> dispatcher;
    const auto replay = [&](std::vector<lard::TargetId>* served_by_node0) {
      lard::ConnId conn = 1;
      for (size_t s = 0; s < parse_sessions; ++s, ++conn) {
        dispatcher->OnConnectionOpen(conn);
        for (const auto& targets : workload.sessions[sessions[s]].batch_targets) {
          const std::vector<lard::Assignment> assignments = dispatcher->OnBatch(conn, targets);
          if (served_by_node0 != nullptr) {
            for (size_t i = 0; i < assignments.size(); ++i) {
              if (assignments[i].node == 0) {
                served_by_node0->push_back(targets[i]);
              }
            }
          }
        }
        dispatcher->OnConnectionClose(conn);
      }
    };
    dispatcher = std::make_unique<lard::Dispatcher>(config, &catalog, &stats);
    replay(&node0_stream);
    timings.dispatch_ns_per_conn = MedianNsPer(
        [&]() { dispatcher = std::make_unique<lard::Dispatcher>(config, &catalog, &stats); },
        [&]() { replay(nullptr); }, static_cast<double>(parse_sessions));
  }

  // core: LruCache at the back-end's capacity over node 0's request stream.
  {
    std::unique_ptr<lard::LruCache> cache;
    timings.lru_ns_per_op = MedianNsPer(
        [&]() { cache = std::make_unique<lard::LruCache>(workload.spec.cache_bytes); },
        [&]() {
          for (const lard::TargetId target : node0_stream) {
            if (!cache->Touch(target)) {
              cache->Insert(target, catalog.Get(target).size_bytes);
            }
          }
        },
        static_cast<double>(node0_stream.size()));
  }

  // proto: the handoff message of each connection's first batch, as the
  // front end builds it for a journaled connection.
  {
    std::vector<lard::HandoffMsg> messages;
    lard::ConnId conn = 1;
    for (size_t s = 0; s < parse_sessions; ++s, ++conn) {
      lard::HandoffMsg msg;
      msg.conn_id = conn;
      msg.replay_protected = true;
      for (const lard::TargetId target : workload.sessions[sessions[s]].batch_targets.front()) {
        lard::RequestDirective directive;
        directive.path = catalog.Get(target).path;
        msg.directives.push_back(std::move(directive));
      }
      messages.push_back(std::move(msg));
    }
    size_t decoded = 0;
    timings.handoff_codec_ns = MedianNsPer(
        []() {},
        [&]() {
          lard::HandoffMsg out;
          for (const lard::HandoffMsg& msg : messages) {
            decoded += lard::DecodeHandoff(lard::EncodeHandoff(msg), &out) ? 1 : 0;
          }
        },
        static_cast<double>(messages.size()));
    g_sink += decoded;
  }

  // net: one EventLoop::Post per request of the stream into a running loop.
  {
    LoopThread loop_thread;
    timings.post_cross_ns = MedianNsPer(
        []() {},
        [&]() {
          std::atomic<bool> last{false};
          for (size_t i = 0; i + 1 < stream.size(); ++i) {
            loop_thread.loop()->Post([]() {});
          }
          loop_thread.loop()->Post([&]() { last.store(true); });
          while (!last.load()) {
            std::this_thread::yield();
          }
        },
        static_cast<double>(stream.size()));
  }

  // proto: DiskGate reads one at a time (no queueing) at the workload's time
  // scale; observed completion time over the cost model's.
  {
    LoopThread loop_thread;
    const lard::DiskCostModel costs;
    lard::DiskGate* gate = nullptr;
    RunOnLoop(loop_thread.loop(), [&]() {
      gate = new lard::DiskGate(loop_thread.loop(), costs, kDiskTimeScale);
    });
    double observed_us = 0.0;
    double modelled_us = 0.0;
    for (size_t i = 0; i < std::min(kDiskReads, stream.size()); ++i) {
      const uint64_t bytes = catalog.Get(stream[i]).size_bytes;
      std::atomic<int64_t> done_ns{0};
      int64_t start_ns = 0;
      RunOnLoop(loop_thread.loop(), [&]() {
        start_ns = NowNs();
        gate->Read(bytes, [&]() { done_ns.store(NowNs()); });
      });
      while (done_ns.load() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      observed_us += static_cast<double>(done_ns.load() - start_ns) / 1e3;
      modelled_us += lard::DiskServiceTimeUs(costs, bytes) * kDiskTimeScale;
    }
    RunOnLoop(loop_thread.loop(), [&]() { delete gate; });
    timings.disk_fidelity = modelled_us > 0.0 ? observed_us / modelled_us : 0.0;
  }
  return timings;
}

SpanStages AggregateSpans(const std::vector<lard::TraceRingSnapshot>& rings,
                          int64_t window_start_us) {
  std::unordered_map<uint64_t, std::vector<lard::TraceSpan>> by_trace;
  for (const lard::TraceRingSnapshot& ring : rings) {
    for (const lard::TraceSpan& span : ring.spans) {
      if (span.start_us >= window_start_us && span.trace_id != 0) {
        by_trace[span.trace_id].push_back(span);
      }
    }
  }
  SpanStages stages;
  using lard::SpanKind;
  for (auto& [trace_id, spans] : by_trace) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const lard::TraceSpan& a, const lard::TraceSpan& b) {
                       return a.start_us < b.start_us;
                     });
    const lard::TraceSpan* accept = nullptr;
    const lard::TraceSpan* parse = nullptr;
    const lard::TraceSpan* policy = nullptr;
    const lard::TraceSpan* adopt = nullptr;
    const lard::TraceSpan* first_serve = nullptr;
    std::vector<std::pair<int64_t, int64_t>> waits;  // disk_wait + lateral intervals
    for (const lard::TraceSpan& span : spans) {
      switch (span.kind) {
        case SpanKind::kAccept: if (accept == nullptr) accept = &span; break;
        case SpanKind::kParse: if (parse == nullptr) parse = &span; break;
        case SpanKind::kPolicy: if (policy == nullptr) policy = &span; break;
        case SpanKind::kAdopt: if (adopt == nullptr) adopt = &span; break;
        case SpanKind::kServe:
          if (first_serve == nullptr) first_serve = &span;
          ++stages.requests;
          break;
        case SpanKind::kDiskWait:
          stages.disk_wait_us += static_cast<double>(span.duration_us);
          waits.emplace_back(span.start_us, span.start_us + span.duration_us);
          break;
        case SpanKind::kLateral:
          stages.lateral_us += static_cast<double>(span.duration_us);
          waits.emplace_back(span.start_us, span.start_us + span.duration_us);
          break;
        case SpanKind::kFlush: ++stages.flush_spans; break;
        default: break;
      }
    }
    ++stages.traces;
    if (accept != nullptr && parse != nullptr) {
      stages.accept_us += static_cast<double>(parse->start_us - accept->start_us);
    }
    if (parse != nullptr && policy != nullptr) {
      stages.parse_us += static_cast<double>(policy->start_us - parse->start_us);
    }
    if (policy != nullptr) {
      stages.policy_us += static_cast<double>(policy->duration_us);
      if (adopt != nullptr) {
        stages.handoff_us += static_cast<double>(adopt->start_us - policy->start_us -
                                                 policy->duration_us);
      }
    }
    if (adopt != nullptr && first_serve != nullptr) {
      stages.adopt_us += static_cast<double>(first_serve->start_us - adopt->start_us);
    }
    for (const lard::TraceSpan& span : spans) {
      if (span.kind != SpanKind::kServe) {
        continue;
      }
      const int64_t begin = span.start_us;
      const int64_t end = span.start_us + span.duration_us;
      int64_t covered = 0;
      for (const auto& [wait_begin, wait_end] : waits) {
        covered += std::max<int64_t>(0, std::min(end, wait_end) - std::max(begin, wait_begin));
      }
      stages.serve_self_us += static_cast<double>(std::max<int64_t>(0, span.duration_us - covered));
    }
  }
  return stages;
}

HistogramSum SnapshotHistograms(lard::MetricsRegistry* metrics,
                                const std::vector<std::string>& names) {
  HistogramSum sum;
  sum.buckets.assign(lard::MetricHistogram::kBuckets, 0);
  std::vector<uint64_t> buckets(lard::MetricHistogram::kBuckets);
  for (const std::string& name : names) {
    metrics->Histogram(name)->SnapshotBuckets(buckets.data());
    for (size_t i = 0; i < buckets.size(); ++i) {
      sum.buckets[i] += buckets[i];
    }
  }
  return sum;
}

double WindowPercentile(const HistogramSum& before, const HistogramSum& after, double p) {
  std::vector<uint64_t> delta(after.buckets.size());
  uint64_t total = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after.buckets[i] - before.buckets[i];
    total += delta[i];
  }
  if (total == 0) {
    return 0.0;
  }
  const double rank = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) {
      continue;
    }
    if (seen + static_cast<double>(delta[i]) >= rank) {
      const double lower =
          i == 0 ? 0.0 : lard::MetricHistogram::BucketUpperBound(static_cast<int>(i) - 1);
      const double upper = lard::MetricHistogram::BucketUpperBound(static_cast<int>(i));
      const double fraction = (rank - seen) / static_cast<double>(delta[i]);
      return lower + fraction * (upper - lower);
    }
    seen += static_cast<double>(delta[i]);
  }
  return lard::MetricHistogram::BucketUpperBound(static_cast<int>(delta.size()) - 1);
}

}  // namespace servebench
