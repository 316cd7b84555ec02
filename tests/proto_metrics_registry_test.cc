// The metrics registry as the prototype's only counter store, end to end on
// real clusters: every /metrics name a one- and a two-front-end cluster
// rendered before the counters moved into the registry is still rendered,
// ClusterSnapshot is the sum of the registry counters of the replicas and
// nodes still present, and the telemetry rates integrate to the counters.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace() {
  SyntheticTraceConfig config;
  config.seed = 7;
  config.num_pages = 40;
  config.num_sessions = 120;
  config.num_clients = 8;
  config.max_size_bytes = 16 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig TestConfig(int num_frontends) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.num_frontends = num_frontends;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 256 * 1024;  // small: the load sees misses too
  config.disk_time_scale = 0.02;
  config.telemetry_interval_ms = 50;
  return config;
}

// Blocking GET against the admin API; returns the body ("" on failure).
std::string AdminGet(uint16_t port, const std::string& path) {
  auto fd = ConnectTcp(port);
  if (!fd.ok()) {
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return "";
  }
  std::string reply;
  char buf[16384];
  ssize_t n;
  while ((n = ::recv(fd.value().get(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  const size_t header_end = reply.find("\r\n\r\n");
  return header_end == std::string::npos ? "" : reply.substr(header_end + 4);
}

// The sample names of a Prometheus text exposition (labels included). The
// build-info labels name the compiler and sanitizer, so that one family is
// compared by name alone.
std::set<std::string> RenderedNames(const std::string& text) {
  std::set<std::string> names;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::string name = line.substr(0, line.rfind(' '));
    if (name.rfind("lard_build_info", 0) == 0) {
      name = "lard_build_info";
    }
    names.insert(name);
  }
  return names;
}

// What GET /metrics rendered before the registry became the only counter
// store, after TestConfig(1) served TestTrace() with one loop per front end.
constexpr char kOneFrontEndNames[] = R"(
lard_admin_request_us_count
lard_admin_request_us_sum
lard_admin_request_us{quantile="0.5"}
lard_admin_request_us{quantile="0.9"}
lard_admin_request_us{quantile="0.99"}
lard_backend_cache_hits_total{node="0"}
lard_backend_cache_hits_total{node="1"}
lard_backend_cache_misses_total{node="0"}
lard_backend_cache_misses_total{node="1"}
lard_backend_heartbeats_total{node="0"}
lard_backend_heartbeats_total{node="1"}
lard_backend_idle_closes_total{node="0"}
lard_backend_idle_closes_total{node="1"}
lard_backend_lateral_out_total{node="0"}
lard_backend_lateral_out_total{node="1"}
lard_backend_open_connections{node="0"}
lard_backend_open_connections{node="1"}
lard_backend_request_us_count{node="0"}
lard_backend_request_us_count{node="1"}
lard_backend_request_us_sum{node="0"}
lard_backend_request_us_sum{node="1"}
lard_backend_request_us{node="0",quantile="0.5"}
lard_backend_request_us{node="0",quantile="0.9"}
lard_backend_request_us{node="0",quantile="0.99"}
lard_backend_request_us{node="1",quantile="0.5"}
lard_backend_request_us{node="1",quantile="0.9"}
lard_backend_request_us{node="1",quantile="0.99"}
lard_backend_requests_total{node="0"}
lard_backend_requests_total{node="1"}
lard_build_info
lard_cluster_active_nodes
lard_cluster_auto_removals_total
lard_dispatcher_failure_reassignments
lard_dispatcher_forwards
lard_dispatcher_handoffs
lard_dispatcher_local_serves
lard_dispatcher_migrations
lard_dispatcher_nodes_removed
lard_dispatcher_open_connections
lard_dispatcher_orphaned_connections
lard_dispatcher_reassignments
lard_dispatcher_relays
lard_dispatcher_requests
lard_fe_connections_total
lard_fe_handoffs_total{node="0"}
lard_fe_handoffs_total{node="1"}
lard_fe_heartbeats_total
lard_fe_idle_closes_total
lard_fe_rehandoffs_total
lard_fe_replay_giveups_total
lard_fe_replays_total
lard_loop_callback_us_count{loop="be0"}
lard_loop_callback_us_count{loop="be1"}
lard_loop_callback_us_count{loop="fe0"}
lard_loop_callback_us_sum{loop="be0"}
lard_loop_callback_us_sum{loop="be1"}
lard_loop_callback_us_sum{loop="fe0"}
lard_loop_callback_us{loop="be0",quantile="0.5"}
lard_loop_callback_us{loop="be0",quantile="0.9"}
lard_loop_callback_us{loop="be0",quantile="0.99"}
lard_loop_callback_us{loop="be1",quantile="0.5"}
lard_loop_callback_us{loop="be1",quantile="0.9"}
lard_loop_callback_us{loop="be1",quantile="0.99"}
lard_loop_callback_us{loop="fe0",quantile="0.5"}
lard_loop_callback_us{loop="fe0",quantile="0.9"}
lard_loop_callback_us{loop="fe0",quantile="0.99"}
lard_loop_pending_tasks{loop="be0"}
lard_loop_pending_tasks{loop="be1"}
lard_loop_pending_tasks{loop="fe0"}
lard_loop_tick_us_count{loop="be0"}
lard_loop_tick_us_count{loop="be1"}
lard_loop_tick_us_count{loop="fe0"}
lard_loop_tick_us_sum{loop="be0"}
lard_loop_tick_us_sum{loop="be1"}
lard_loop_tick_us_sum{loop="fe0"}
lard_loop_tick_us{loop="be0",quantile="0.5"}
lard_loop_tick_us{loop="be0",quantile="0.9"}
lard_loop_tick_us{loop="be0",quantile="0.99"}
lard_loop_tick_us{loop="be1",quantile="0.5"}
lard_loop_tick_us{loop="be1",quantile="0.9"}
lard_loop_tick_us{loop="be1",quantile="0.99"}
lard_loop_tick_us{loop="fe0",quantile="0.5"}
lard_loop_tick_us{loop="fe0",quantile="0.9"}
lard_loop_tick_us{loop="fe0",quantile="0.99"}
lard_loop_wakeup_delay_us_count{loop="be0"}
lard_loop_wakeup_delay_us_count{loop="be1"}
lard_loop_wakeup_delay_us_count{loop="fe0"}
lard_loop_wakeup_delay_us_sum{loop="be0"}
lard_loop_wakeup_delay_us_sum{loop="be1"}
lard_loop_wakeup_delay_us_sum{loop="fe0"}
lard_loop_wakeup_delay_us{loop="be0",quantile="0.5"}
lard_loop_wakeup_delay_us{loop="be0",quantile="0.9"}
lard_loop_wakeup_delay_us{loop="be0",quantile="0.99"}
lard_loop_wakeup_delay_us{loop="be1",quantile="0.5"}
lard_loop_wakeup_delay_us{loop="be1",quantile="0.9"}
lard_loop_wakeup_delay_us{loop="be1",quantile="0.99"}
lard_loop_wakeup_delay_us{loop="fe0",quantile="0.5"}
lard_loop_wakeup_delay_us{loop="fe0",quantile="0.9"}
lard_loop_wakeup_delay_us{loop="fe0",quantile="0.99"}
lard_node_load{node="0"}
lard_node_load{node="1"}
lard_process_open_fds
lard_process_rss_bytes
lard_process_uptime_seconds
)";

// What TestConfig(2) rendered on top of those, load sprayed across both
// replicas.
constexpr char kTwoFrontEndExtraNames[] = R"(
lard_fe_connections_total{fe="0"}
lard_fe_connections_total{fe="1"}
lard_fe_handoffs_total{fe="0"}
lard_fe_handoffs_total{fe="1"}
lard_fe_rehandoffs_total{fe="0"}
lard_fe_rehandoffs_total{fe="1"}
lard_loop_callback_us_count{loop="fe1"}
lard_loop_callback_us_sum{loop="fe1"}
lard_loop_callback_us{loop="fe1",quantile="0.5"}
lard_loop_callback_us{loop="fe1",quantile="0.9"}
lard_loop_callback_us{loop="fe1",quantile="0.99"}
lard_loop_pending_tasks{loop="fe1"}
lard_loop_tick_us_count{loop="fe1"}
lard_loop_tick_us_sum{loop="fe1"}
lard_loop_tick_us{loop="fe1",quantile="0.5"}
lard_loop_tick_us{loop="fe1",quantile="0.9"}
lard_loop_tick_us{loop="fe1",quantile="0.99"}
lard_loop_wakeup_delay_us_count{loop="fe1"}
lard_loop_wakeup_delay_us_sum{loop="fe1"}
lard_loop_wakeup_delay_us{loop="fe1",quantile="0.5"}
lard_loop_wakeup_delay_us{loop="fe1",quantile="0.9"}
lard_loop_wakeup_delay_us{loop="fe1",quantile="0.99"}
lard_mesh_deltas_applied_total{fe="0"}
lard_mesh_deltas_applied_total{fe="1"}
lard_mesh_deltas_sent_total{fe="0"}
lard_mesh_deltas_sent_total{fe="1"}
lard_mesh_divergence{fe="0"}
lard_mesh_divergence{fe="1"}
lard_mesh_epoch{fe="0"}
lard_mesh_epoch{fe="1"}
lard_mesh_gossip_lag_ms{fe="0"}
lard_mesh_gossip_lag_ms{fe="1"}
lard_mesh_peers{fe="0"}
lard_mesh_peers{fe="1"}
)";

// `names` holds one sample name per line.
void ExpectEveryName(const std::set<std::string>& rendered, const std::string& names) {
  std::istringstream in(names);
  std::string name;
  while (std::getline(in, name)) {
    if (!name.empty()) {
      EXPECT_EQ(rendered.count(name), 1u) << "no longer rendered: " << name;
    }
  }
}

// Serves the whole trace through `cluster` and returns GET /metrics.
std::string LoadAndRender(Cluster* cluster, const Trace& trace) {
  LoadGeneratorConfig load;
  load.ports = cluster->ports();
  load.num_clients = 4;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  return AdminGet(cluster->admin_port(), "/metrics");
}

TEST(MetricsNamesTest, OneFrontEndRendersEveryEarlierName) {
  const Trace trace = TestTrace();
  Cluster cluster(TestConfig(1), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const std::set<std::string> rendered = RenderedNames(LoadAndRender(&cluster, trace));
  ExpectEveryName(rendered, kOneFrontEndNames);
  cluster.Stop();
}

TEST(MetricsNamesTest, TwoFrontEndsRenderEveryEarlierName) {
  const Trace trace = TestTrace();
  Cluster cluster(TestConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const std::set<std::string> rendered = RenderedNames(LoadAndRender(&cluster, trace));
  ExpectEveryName(rendered, kOneFrontEndNames);
  ExpectEveryName(rendered, kTwoFrontEndExtraNames);
  cluster.Stop();
}

// Sum of back-end counter `name` over nodes 0..nodes-1.
uint64_t NodeSum(MetricsRegistry* metrics, const char* name, int nodes) {
  uint64_t sum = 0;
  for (int node = 0; node < nodes; ++node) {
    sum += metrics->CounterValue(MetricsRegistry::WithNode(name, node));
  }
  return sum;
}

TEST(ClusterSnapshotTest, FieldsAreSumsOfTheRegistryCounters) {
  const Trace trace = TestTrace();
  for (const int frontends : {1, 2}) {
    SCOPED_TRACE(std::to_string(frontends) + " front ends");
    Cluster cluster(TestConfig(frontends), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    (void)LoadAndRender(&cluster, trace);
    MetricsRegistry* metrics = cluster.metrics();
    const uint64_t heartbeats_before = metrics->CounterValue("lard_fe_heartbeats_total");
    const ClusterSnapshot snapshot = cluster.Snapshot();
    const uint64_t heartbeats_after = metrics->CounterValue("lard_fe_heartbeats_total");

    const int nodes = 2;
    EXPECT_EQ(snapshot.requests_served, NodeSum(metrics, "lard_backend_requests_total", nodes));
    EXPECT_EQ(snapshot.local_hits, NodeSum(metrics, "lard_backend_cache_hits_total", nodes));
    EXPECT_EQ(snapshot.local_misses, NodeSum(metrics, "lard_backend_cache_misses_total", nodes));
    EXPECT_EQ(snapshot.lateral_out, NodeSum(metrics, "lard_backend_lateral_out_total", nodes));
    EXPECT_EQ(snapshot.bytes_to_clients,
              NodeSum(metrics, "lard_backend_bytes_to_clients_total", nodes));
    EXPECT_EQ(snapshot.not_found, NodeSum(metrics, "lard_backend_not_found_total", nodes));
    EXPECT_EQ(snapshot.migrations, NodeSum(metrics, "lard_backend_handbacks_total", nodes));
    EXPECT_EQ(snapshot.drain_handbacks,
              NodeSum(metrics, "lard_backend_drain_handbacks_total", nodes));
    EXPECT_EQ(snapshot.replays_adopted,
              NodeSum(metrics, "lard_backend_replays_adopted_total", nodes));
    EXPECT_EQ(snapshot.spliced_responses,
              NodeSum(metrics, "lard_backend_spliced_responses_total", nodes));
    ASSERT_EQ(snapshot.requests_per_node.size(), 2u);
    for (int node = 0; node < nodes; ++node) {
      EXPECT_EQ(snapshot.requests_per_node[static_cast<size_t>(node)],
                metrics->CounterValue(MetricsRegistry::WithNode("lard_backend_requests_total", node)));
    }

    // Front-end counts: the unlabelled tier total, and in a replicated tier
    // also the sum of the {fe="k"} replica counters.
    const std::vector<std::pair<uint64_t, const char*>> fe_fields = {
        {snapshot.connections, "lard_fe_connections_total"},
        {snapshot.consults, "lard_fe_consults_total"},
        {snapshot.handoffs, "lard_fe_handoffs_total"},
        {snapshot.rehandoffs, "lard_fe_rehandoffs_total"},
        {snapshot.replays, "lard_fe_replays_total"},
        {snapshot.replay_giveups, "lard_fe_replay_giveups_total"},
        {snapshot.auto_removals, "lard_cluster_auto_removals_total"},
    };
    for (const auto& [value, name] : fe_fields) {
      EXPECT_EQ(value, metrics->CounterValue(name)) << name;
      if (frontends == 2) {
        EXPECT_EQ(value, metrics->CounterValue(MetricsRegistry::WithFe(name, 0)) +
                             metrics->CounterValue(MetricsRegistry::WithFe(name, 1)))
            << name;
      }
    }
    // Heartbeats keep arriving while the cluster idles.
    EXPECT_LE(heartbeats_before, snapshot.heartbeats);
    EXPECT_LE(snapshot.heartbeats, heartbeats_after);

    // servebench's correctness check rests on this identity: a lateral fetch
    // is a hit or miss at the peer that serves it, so hits + misses cover
    // every request served, lateral or not.
    EXPECT_EQ(snapshot.requests_served, trace.total_requests());
    EXPECT_GT(snapshot.local_misses, 0u);
    EXPECT_EQ(snapshot.local_hits + snapshot.local_misses, snapshot.requests_served);
    EXPECT_GT(snapshot.connections, 0u);
    EXPECT_GT(snapshot.handoffs, 0u);
    cluster.Stop();
  }
}

TEST(ClusterSnapshotTest, RemovedReplicasAndNodesLeaveTheSnapshot) {
  const Trace trace = TestTrace();
  Cluster cluster(TestConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  (void)LoadAndRender(&cluster, trace);
  MetricsRegistry* metrics = cluster.metrics();
  const std::string fe0_connections = MetricsRegistry::WithFe("lard_fe_connections_total", 0);
  const std::string fe1_connections = MetricsRegistry::WithFe("lard_fe_connections_total", 1);
  ASSERT_GT(metrics->CounterValue(fe1_connections), 0u);
  EXPECT_EQ(cluster.Snapshot().connections,
            metrics->CounterValue(fe0_connections) + metrics->CounterValue(fe1_connections));

  ASSERT_TRUE(cluster.RemoveFrontEnd(1));
  ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_EQ(snapshot.connections, metrics->CounterValue(fe0_connections));
  EXPECT_EQ(snapshot.handoffs,
            metrics->CounterValue(MetricsRegistry::WithFe("lard_fe_handoffs_total", 0)));

  // A removed back-end's counts leave once its server is torn down.
  ASSERT_TRUE(cluster.RemoveNode(1));
  for (int attempt = 0; attempt < 500 && snapshot.requests_per_node[1] != 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    snapshot = cluster.Snapshot();
  }
  EXPECT_EQ(snapshot.requests_per_node[1], 0u);
  EXPECT_EQ(snapshot.requests_served,
            metrics->CounterValue(MetricsRegistry::WithNode("lard_backend_requests_total", 0)));
  cluster.Stop();
}

// The [t_ms, value] points of `series` in a TimeSeriesStore JSON rendering.
std::vector<std::pair<int64_t, double>> ParsePoints(const std::string& json,
                                                    const std::string& series) {
  std::vector<std::pair<int64_t, double>> points;
  size_t pos = json.find("\"" + series + "\":[");
  if (pos == std::string::npos) {
    return points;
  }
  pos = json.find('[', pos) + 1;
  long long t = 0;
  double value = 0.0;
  int consumed = 0;
  while (std::sscanf(json.c_str() + pos, "[%lld,%lf]%n", &t, &value, &consumed) == 2) {
    points.emplace_back(t, value);
    pos += static_cast<size_t>(consumed);
    if (json[pos] == ',') {
      ++pos;
    }
  }
  return points;
}

// Events in a rate series: each point's rate times its window, the gap since
// the previous point (the nominal interval for the first).
double Integrate(const std::vector<std::pair<int64_t, double>>& points, int64_t interval_ms) {
  double events = 0.0;
  int64_t previous = -1;
  for (const auto& [t, rate] : points) {
    events += rate * static_cast<double>(previous < 0 ? interval_ms : t - previous) / 1000.0;
    previous = t;
  }
  return events;
}

TEST(ClusterTelemetryRatesTest, RatesIntegrateToTheirCounters) {
  const Trace trace = TestTrace();
  ClusterConfig config = TestConfig(1);
  config.telemetry_interval_ms = 200;  // 300 samples: a minute of retention
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  (void)LoadAndRender(&cluster, trace);
  MetricsRegistry* metrics = cluster.metrics();

  // Each rate integrates to its counter once a tick has sampled the last
  // event; the load has stopped, so the counters stand still meanwhile.
  struct Check {
    std::string component;  // "fe0" or a mirrored "be<k>"
    std::string series;
    std::string counter;
  };
  std::vector<Check> checks = {{"fe0", "conn_rate", "lard_fe_connections_total"},
                               {"fe0", "handoff_rate", "lard_fe_handoffs_total"}};
  for (int node = 0; node < 2; ++node) {
    checks.push_back({"be" + std::to_string(node), "request_rate",
                      MetricsRegistry::WithNode("lard_backend_requests_total", node)});
    checks.push_back({"be" + std::to_string(node), "lateral_rate",
                      MetricsRegistry::WithNode("lard_backend_lateral_out_total", node)});
  }
  const auto integral = [&](const Check& check) {
    const std::string json = cluster.frontend(0).DescribeTimeSeriesJson(
        check.series, check.component, 0, check.component != "fe0");
    return Integrate(ParsePoints(json, check.series), config.telemetry_interval_ms);
  };
  const auto settled = [&]() {
    for (const Check& check : checks) {
      if (std::abs(integral(check) - static_cast<double>(metrics->CounterValue(check.counter))) >
          0.5) {
        return false;
      }
    }
    return true;
  };
  for (int attempt = 0; attempt < 100 && !settled(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(config.telemetry_interval_ms / 2));
  }
  for (const Check& check : checks) {
    const uint64_t total = metrics->CounterValue(check.counter);
    EXPECT_NEAR(integral(check), static_cast<double>(total), 0.5)
        << check.component << " " << check.series;
    if (check.series != "lateral_rate") {
      EXPECT_GT(total, 0u) << check.counter;
    }
  }
  cluster.Stop();
}

}  // namespace
}  // namespace lard
