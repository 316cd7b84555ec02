// TimeSeriesStore ring semantics (wrap, retention, NaN backfill, JSON) and
// the window samplers that feed it.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/obs/process_stats.h"
#include "src/obs/samplers.h"
#include "src/obs/time_series.h"
#include "src/util/metrics.h"

namespace lard {
namespace {

TimeSeriesConfig SmallConfig(int capacity) {
  TimeSeriesConfig config;
  config.interval_ms = 100;
  config.capacity = capacity;
  return config;
}

TEST(TimeSeriesStoreTest, AddSeriesIsFindOrCreate) {
  TimeSeriesStore store(SmallConfig(4));
  const int a = store.AddSeries("rate");
  EXPECT_EQ(store.AddSeries("rate"), a);
  EXPECT_EQ(store.FindSeries("rate"), a);
  EXPECT_EQ(store.FindSeries("absent"), -1);
  EXPECT_NE(store.AddSeries("other"), a);
}

TEST(TimeSeriesStoreTest, RingWrapKeepsNewestCapacitySamples) {
  TimeSeriesStore store(SmallConfig(3));
  const int series = store.AddSeries("v");
  for (int i = 0; i < 10; ++i) {
    store.Append(100 * (i + 1), {{series, static_cast<double>(i)}});
  }
  EXPECT_EQ(store.num_samples(), 3u);
  EXPECT_EQ(store.last_t_ms(), 1000);
  const auto points = store.Points("v", 0);
  ASSERT_EQ(points.size(), 3u);
  // Oldest first, and only the newest capacity samples survive the wrap.
  EXPECT_EQ(points[0].t_ms, 800);
  EXPECT_DOUBLE_EQ(points[0].value, 7.0);
  EXPECT_EQ(points[2].t_ms, 1000);
  EXPECT_DOUBLE_EQ(points[2].value, 9.0);
  EXPECT_DOUBLE_EQ(store.Latest("v"), 9.0);
}

TEST(TimeSeriesStoreTest, WindowRestrictsToNewestSamples) {
  TimeSeriesStore store(SmallConfig(10));
  const int series = store.AddSeries("v");
  for (int i = 0; i < 8; ++i) {
    store.Append(100 * (i + 1), {{series, static_cast<double>(i)}});
  }
  // Newest is t=800; a 250ms window keeps t in [550, 800].
  const auto points = store.Points("v", 250);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points.front().t_ms, 600);
  EXPECT_EQ(points.back().t_ms, 800);
}

TEST(TimeSeriesStoreTest, LateSeriesBackfillsNaNAndSparseAppendSkips) {
  TimeSeriesStore store(SmallConfig(8));
  const int a = store.AddSeries("a");
  store.Append(100, {{a, 1.0}});
  store.Append(200, {{a, 2.0}});
  const int b = store.AddSeries("b");  // late: slots at t=100/200 are NaN
  store.Append(300, {{a, 3.0}, {b, 30.0}});
  store.Append(400, {{b, 40.0}});  // sparse: "a" gets NaN this tick
  EXPECT_TRUE(store.Points("b", 0).size() == 2);
  EXPECT_DOUBLE_EQ(store.Points("b", 0).front().value, 30.0);
  // Points skips NaN slots; Latest skips the NaN at t=400.
  ASSERT_EQ(store.Points("a", 0).size(), 3u);
  EXPECT_DOUBLE_EQ(store.Latest("a"), 3.0);
  EXPECT_DOUBLE_EQ(store.Latest("b"), 40.0);
}

TEST(TimeSeriesStoreTest, LatestIsNaNWhenAbsentOrEmpty) {
  TimeSeriesStore store(SmallConfig(4));
  EXPECT_TRUE(std::isnan(store.Latest("missing")));
  store.AddSeries("empty");
  EXPECT_TRUE(std::isnan(store.Latest("empty")));
}

TEST(TimeSeriesStoreTest, RenderJsonFiltersAndNullsNaN) {
  TimeSeriesStore store(SmallConfig(4));
  const int rate = store.AddSeries("request_rate");
  store.AddSeries("open_conns");
  store.Append(100, {{rate, 5.0}});
  const std::string json = store.RenderJson("", 0);
  EXPECT_NE(json.find("\"interval_ms\":100"), std::string::npos);
  EXPECT_NE(json.find("\"request_rate\":[[100,5]]"), std::string::npos);
  // The un-appended series renders its slot as null, not NaN (invalid JSON).
  EXPECT_NE(json.find("\"open_conns\":[[100,null]]"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // Metric filter is a substring match over series names.
  const std::string filtered = store.RenderJson("request", 0);
  EXPECT_NE(filtered.find("request_rate"), std::string::npos);
  EXPECT_EQ(filtered.find("open_conns"), std::string::npos);
}

TEST(CounterRateSamplerTest, RatesAndCounterResets) {
  CounterRateSampler sampler;
  // First sample: no baseline yet, the whole value counts over the window.
  EXPECT_DOUBLE_EQ(sampler.Sample(10, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(sampler.Sample(30, 2.0), 10.0);
  // Reset (restart): current < previous must not emit a negative rate — the
  // baseline restarts at zero so everything seen this window counts.
  EXPECT_DOUBLE_EQ(sampler.Sample(4, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(sampler.Sample(4, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(sampler.Sample(5, 0.0), 0.0);  // degenerate dt
}

TEST(HistogramWindowSamplerTest, QuantilesCoverOnlyTheWindow) {
  MetricsRegistry registry;
  MetricHistogram* histogram = registry.Histogram("lard_test_us");
  HistogramWindowSampler sampler;
  for (int i = 0; i < 100; ++i) {
    histogram->Observe(10.0);
  }
  auto window = sampler.Sample(*histogram);
  EXPECT_EQ(window.count, 100u);
  EXPECT_GE(window.p99, 10.0);
  EXPECT_LE(window.p99, 13.0);
  // Next window sees only the new (much larger) samples, not the cumulative
  // distribution — that is the whole point of the bucket-delta sampler.
  for (int i = 0; i < 50; ++i) {
    histogram->Observe(100000.0);
  }
  window = sampler.Sample(*histogram);
  EXPECT_EQ(window.count, 50u);
  EXPECT_GE(window.p50, 100000.0);
  // An idle tick is an empty window, all-zero quantiles.
  window = sampler.Sample(*histogram);
  EXPECT_EQ(window.count, 0u);
  EXPECT_DOUBLE_EQ(window.p99, 0.0);
}

TEST(TelemetryTableTest, RowsSampleTheirInstrumentsInSeriesOrder) {
  MetricsRegistry registry;
  MetricCounter* a = registry.Counter("a_total");
  MetricCounter* b = registry.Counter("b_total");
  MetricGauge* g0 = registry.Gauge("g0");
  MetricGauge* g1 = registry.Gauge("g1");
  MetricHistogram* h0 = registry.Histogram("h0_us");
  MetricHistogram* h1 = registry.Histogram("h1_us");
  TelemetryTable table;
  table.AddRate("rate", a);
  table.AddRate("input", b, /*series=*/false);
  table.AddDerived("derived");
  table.AddGauge("gauge", {g0, g1});
  table.AddQuantile("p99", SeriesKind::kP99, {h0, h1});
  TimeSeriesStore store(TimeSeriesConfig{});
  table.Register(&store);
  const std::vector<std::string> series = {"rate", "derived", "gauge", "p99"};
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(store.FindSeries(series[i]), static_cast<int>(i));
    EXPECT_EQ(table.series_name(static_cast<int>(i)), series[i]);
  }
  EXPECT_EQ(store.FindSeries("input"), -1);

  // First tick: the nominal interval is the window; counts so far all count.
  a->Increment(10);
  b->Increment(20);
  g0->Set(2.0);
  g1->Set(3.0);
  h0->Observe(10.0);
  h1->Observe(1000.0);
  table.Sample(1000, 500);
  EXPECT_DOUBLE_EQ(table.value("rate"), 20.0);  // 10 events in 0.5 s
  EXPECT_DOUBLE_EQ(table.value("input"), 40.0);
  EXPECT_DOUBLE_EQ(table.value("gauge"), 5.0);
  EXPECT_GE(table.value("p99"), 1000.0);  // the worst histogram's window
  EXPECT_TRUE(std::isnan(table.value("derived")));
  table.Set("derived", 7.0);
  // The input row is no series; series come in order, each with its index.
  const std::vector<std::pair<int, double>> values = table.Values();
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], std::make_pair(0, 20.0));
  EXPECT_EQ(values[1], std::make_pair(1, 7.0));
  EXPECT_EQ(values[2], std::make_pair(2, 5.0));
  EXPECT_EQ(values[3].first, 3);

  // Next tick: the window is the gap since the last one; an idle quantile
  // window and an unset derived row have no value.
  a->Increment(4);
  table.Sample(3000, 500);
  EXPECT_DOUBLE_EQ(table.value("rate"), 2.0);
  EXPECT_DOUBLE_EQ(table.value("input"), 0.0);
  EXPECT_TRUE(std::isnan(table.value("p99")));
  EXPECT_EQ(table.Values(), (std::vector<std::pair<int, double>>{{0, 2.0}, {2, 5.0}}));
}

TEST(ProcessStatsTest, ReadsLiveProcessAndPublishes) {
  const ProcessStats stats = ReadProcessStats();
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GT(stats.open_fds, 0);
  EXPECT_GE(stats.uptime_seconds, 0.0);

  MetricsRegistry registry;
  UpdateProcessMetrics(&registry);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("lard_build_info"), std::string::npos);
  EXPECT_NE(text.find("lard_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("lard_process_rss_bytes"), std::string::npos);
  EXPECT_NE(text.find("lard_process_open_fds"), std::string::npos);
}

}  // namespace
}  // namespace lard
