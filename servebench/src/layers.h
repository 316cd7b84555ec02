// Per-layer measurements: timings of public functions on the workload's own
// inputs (run outside the end-to-end window), the per-stage aggregation of
// the tracer's spans, and window percentiles of the event-loop histograms.
#ifndef SERVEBENCH_SRC_LAYERS_H_
#define SERVEBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "servebench/src/workload.h"
#include "src/util/metrics.h"
#include "src/util/tracing.h"

namespace servebench {

// Timings of single functions, driven by `sessions` (indexes into
// workload.sessions, in replay order).
struct FunctionTimings {
  double parse_ns_per_req = 0.0;       // RequestParser::Feed
  double body_ns_per_kb = 0.0;         // ContentStore::BodyFor
  double serialize_ns_per_kb = 0.0;    // HttpResponse::Serialize
  double dispatch_ns_per_conn = 0.0;   // Dispatcher open + batches + close
  double handoff_codec_ns = 0.0;       // EncodeHandoff + DecodeHandoff
  double post_cross_ns = 0.0;          // EventLoop::Post from another thread
  double lru_ns_per_op = 0.0;          // LruCache Touch / Insert
  double disk_fidelity = 0.0;          // DiskGate observed / modelled time
};

FunctionTimings TimeFunctions(const Workload& workload, const std::vector<size_t>& sessions);

// Per-stage time summed over the traced window, in µs, and the number of
// requests served in it. Spans carrying a duration (policy, serve,
// disk_wait, lateral) contribute it; serve counts only its self time, its
// duration minus the part covered by disk_wait and lateral spans of the same
// trace. Accept, parse, handoff and adopt are recorded as instants, so a
// stage is the interval from its instant to the next step of the same trace:
//   accept:  accept instant -> parse instant (reading the first request)
//   parse:   parse instant -> policy start (target lookup, dispatcher open)
//   handoff: policy end -> adopt instant (encode, fd passing, back-end decode)
//   adopt:   adopt instant -> first serve start
struct SpanStages {
  double accept_us = 0.0;
  double parse_us = 0.0;
  double policy_us = 0.0;
  double handoff_us = 0.0;
  double adopt_us = 0.0;
  double serve_self_us = 0.0;
  double disk_wait_us = 0.0;
  double lateral_us = 0.0;
  uint64_t requests = 0;      // serve spans
  uint64_t traces = 0;        // connections seen
  uint64_t flush_spans = 0;   // recorded, always with zero duration
};

SpanStages AggregateSpans(const std::vector<lard::TraceRingSnapshot>& rings,
                          int64_t window_start_us);

// Cumulative bucket counts of a set of histograms, summed.
struct HistogramSum {
  std::vector<uint64_t> buckets;
};
HistogramSum SnapshotHistograms(lard::MetricsRegistry* metrics,
                                const std::vector<std::string>& names);
// p-th percentile of the samples observed between two snapshots, linearly
// interpolated inside the bucket that holds it. 0 when no samples.
double WindowPercentile(const HistogramSum& before, const HistogramSum& after, double p);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_LAYERS_H_
