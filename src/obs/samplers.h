// Window samplers: turn the cumulative instruments in MetricsRegistry into
// the per-interval values a TimeSeriesStore records. Each sampler keeps the
// previous cumulative state and emits the delta, so a 1s tick yields rates
// ("requests/s") and window quantiles ("p99 over the last second") rather
// than since-process-start aggregates.
//
// Samplers are plain value types owned by whichever component runs the
// sampling timer; they are not thread-safe (one owner, one loop). A
// component's TelemetryTable holds them, one per sampled instrument.
#ifndef SRC_OBS_SAMPLERS_H_
#define SRC_OBS_SAMPLERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/time_series.h"
#include "src/util/metrics.h"

namespace lard {

// Per-second rate of a monotonic counter. A cumulative value that goes
// backwards (process restart, counter reset) restarts the baseline at zero
// instead of emitting a huge negative rate.
class CounterRateSampler {
 public:
  double Sample(uint64_t current, double dt_seconds) {
    uint64_t prev = prev_;
    if (!has_prev_ || current < prev) {
      prev = 0;  // reset: everything seen this window counts
    }
    prev_ = current;
    has_prev_ = true;
    if (dt_seconds <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(current - prev) / dt_seconds;
  }

 private:
  uint64_t prev_ = 0;
  bool has_prev_ = false;
};

// Window quantiles of a MetricHistogram: snapshots the cumulative buckets
// each tick and computes p50/p95/p99 over the bucket *deltas*, i.e. only the
// samples observed since the previous tick.
class HistogramWindowSampler {
 public:
  struct Window {
    uint64_t count = 0;  // samples in the window
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  Window Sample(const MetricHistogram& histogram);

 private:
  uint64_t prev_buckets_[MetricHistogram::kBuckets] = {};
  bool has_prev_ = false;
};

// What a telemetry row reports each tick.
enum class SeriesKind {
  kRate,     // per-second rate of its counter
  kGauge,    // current value of its gauges, summed
  kP50,      // window quantile of its histograms, the worst one's
  kP95,
  kP99,
  kDerived,  // computed by the component's tick and set with Set()
};

// A component's telemetry table: one row per series of its TimeSeriesStore,
// in series order. A row over registry instruments samples itself, so a
// series of a counter, gauge or histogram is one row; a derived series (a
// ratio, a skew, process stats) is a row the tick sets by name. A row may
// read several instruments, say every event loop of a front end.
class TelemetryTable {
 public:
  // `series` false: a rate that is no series, only an input of a derived one.
  void AddRate(std::string name, const MetricCounter* counter, bool series = true);
  void AddGauge(std::string name, std::vector<const MetricGauge*> gauges);
  void AddQuantile(std::string name, SeriesKind quantile,
                   std::vector<const MetricHistogram*> histograms);
  void AddDerived(std::string name);

  // Adds the series to `store`, which must have none yet (setup time).
  void Register(TimeSeriesStore* store) const;
  // Samples every instrument row over the window since the previous call
  // (`interval_ms` for the first) and clears the derived rows.
  void Sample(int64_t now_ms, int64_t interval_ms);
  void Set(const std::string& name, double value) { rows_[Find(name)].value = value; }
  // NaN when the row has no value this tick: an empty quantile window or a
  // derived row left unset.
  double value(const std::string& name) const { return rows_[Find(name)].value; }
  // This tick's (series index, value) pairs, in series order, for rows with
  // a value. Valid until the next call.
  const std::vector<std::pair<int, double>>& Values();
  const std::string& series_name(int series) const {
    return series_names_[static_cast<size_t>(series)];
  }

 private:
  struct Row {
    std::string name;
    int series = -1;  // -1: an input row
    SeriesKind kind = SeriesKind::kDerived;
    const MetricCounter* counter = nullptr;
    CounterRateSampler rate;
    std::vector<const MetricGauge*> gauges;
    std::vector<const MetricHistogram*> histograms;
    std::vector<HistogramWindowSampler> windows;  // one per histogram
    double value = 0.0;
  };
  Row* AddRow(std::string name, SeriesKind kind, bool series);
  size_t Find(const std::string& name) const;

  std::vector<Row> rows_;
  std::vector<std::string> series_names_;  // series index -> name
  std::vector<std::pair<int, double>> values_;
  int64_t last_ms_ = 0;
};

}  // namespace lard

#endif  // SRC_OBS_SAMPLERS_H_
