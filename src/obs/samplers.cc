#include "src/obs/samplers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace lard {
namespace {
constexpr double kNoValue = std::numeric_limits<double>::quiet_NaN();
}  // namespace

HistogramWindowSampler::Window HistogramWindowSampler::Sample(const MetricHistogram& histogram) {
  uint64_t current[MetricHistogram::kBuckets];
  histogram.SnapshotBuckets(current);

  uint64_t delta[MetricHistogram::kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < MetricHistogram::kBuckets; ++i) {
    // A bucket that shrank means the histogram was reset; count what's there.
    const uint64_t prev = (has_prev_ && prev_buckets_[i] <= current[i]) ? prev_buckets_[i] : 0;
    delta[i] = current[i] - prev;
    total += delta[i];
    prev_buckets_[i] = current[i];
  }
  has_prev_ = true;

  Window window;
  window.count = total;
  if (total == 0) {
    return window;
  }
  const double targets[3] = {0.50 * static_cast<double>(total),
                             0.95 * static_cast<double>(total),
                             0.99 * static_cast<double>(total)};
  double* outputs[3] = {&window.p50, &window.p95, &window.p99};
  uint64_t seen = 0;
  int next = 0;
  for (int i = 0; i < MetricHistogram::kBuckets && next < 3; ++i) {
    seen += delta[i];
    while (next < 3 && static_cast<double>(seen) >= targets[next]) {
      *outputs[next] = MetricHistogram::BucketUpperBound(i);
      ++next;
    }
  }
  return window;
}

TelemetryTable::Row* TelemetryTable::AddRow(std::string name, SeriesKind kind, bool series) {
  Row& row = rows_.emplace_back();
  row.kind = kind;
  if (series) {
    row.series = static_cast<int>(series_names_.size());
    series_names_.push_back(name);
  }
  row.name = std::move(name);
  return &row;
}

size_t TelemetryTable::Find(const std::string& name) const {
  for (size_t row = 0; row < rows_.size(); ++row) {
    if (rows_[row].name == name) {
      return row;
    }
  }
  LARD_CHECK(false) << "no telemetry row " << name;
  return 0;
}

void TelemetryTable::AddRate(std::string name, const MetricCounter* counter, bool series) {
  AddRow(std::move(name), SeriesKind::kRate, series)->counter = counter;
}

void TelemetryTable::AddGauge(std::string name, std::vector<const MetricGauge*> gauges) {
  AddRow(std::move(name), SeriesKind::kGauge, true)->gauges = std::move(gauges);
}

void TelemetryTable::AddQuantile(std::string name, SeriesKind quantile,
                                 std::vector<const MetricHistogram*> histograms) {
  Row* row = AddRow(std::move(name), quantile, true);
  row->windows.resize(histograms.size());
  row->histograms = std::move(histograms);
}

void TelemetryTable::AddDerived(std::string name) {
  AddRow(std::move(name), SeriesKind::kDerived, true);
}

void TelemetryTable::Register(TimeSeriesStore* store) const {
  for (size_t series = 0; series < series_names_.size(); ++series) {
    LARD_CHECK(store->AddSeries(series_names_[series]) == static_cast<int>(series));
  }
}

void TelemetryTable::Sample(int64_t now_ms, int64_t interval_ms) {
  const double dt = static_cast<double>(last_ms_ > 0 ? now_ms - last_ms_ : interval_ms) / 1000.0;
  last_ms_ = now_ms;
  for (Row& row : rows_) {
    row.value = row.kind == SeriesKind::kGauge ? 0.0 : kNoValue;
    if (row.counter != nullptr) {
      row.value = row.rate.Sample(row.counter->value(), dt);
    }
    for (const MetricGauge* gauge : row.gauges) {
      row.value += gauge->value();
    }
    for (size_t i = 0; i < row.histograms.size(); ++i) {
      const HistogramWindowSampler::Window window = row.windows[i].Sample(*row.histograms[i]);
      if (window.count == 0) {
        continue;
      }
      const double quantile = row.kind == SeriesKind::kP50   ? window.p50
                              : row.kind == SeriesKind::kP95 ? window.p95
                                                             : window.p99;
      row.value = std::isnan(row.value) ? quantile : std::max(row.value, quantile);
    }
  }
}

const std::vector<std::pair<int, double>>& TelemetryTable::Values() {
  values_.clear();
  for (const Row& row : rows_) {
    if (row.series >= 0 && !std::isnan(row.value)) {
      values_.emplace_back(row.series, row.value);
    }
  }
  return values_;
}

}  // namespace lard
