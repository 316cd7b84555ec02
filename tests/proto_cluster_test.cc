// End-to-end integration tests of the prototype cluster: real sockets on
// localhost, real fd-passing handoff, real lateral fetches — compressed disk
// time so the suite stays fast.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cmath>

#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

// Small but non-trivial workload: enough distinct pages to exceed the tiny
// back-end caches we configure, so the disk & lateral paths get exercised.
Trace TestTrace(uint64_t seed = 42) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 60;
  config.num_sessions = 120;
  config.num_clients = 16;
  config.max_size_bytes = 64 * 1024;  // keep bodies small for test speed
  return GenerateSyntheticTrace(config);
}

ClusterConfig BaseConfig(int nodes, Policy policy, Mechanism mechanism) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.mechanism = mechanism;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;  // 28.5 ms seeks -> ~0.6 ms
  return config;
}

LoadResult Drive(Cluster& cluster, const Trace& trace, bool http10 = false, int clients = 8) {
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = clients;
  load.http10 = http10;
  return RunLoad(load, trace);
}

TEST(ProtoClusterTest, ServesWholeTraceCorrectly) {
  const Trace trace = TestTrace();
  Cluster cluster(BaseConfig(3, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace);
  EXPECT_EQ(result.sessions, trace.sessions().size());
  EXPECT_EQ(result.requests, trace.total_requests());
  EXPECT_EQ(result.responses_ok, result.requests);
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_GT(result.throughput_rps, 0.0);

  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_EQ(snapshot.requests_served, trace.total_requests());
  EXPECT_EQ(snapshot.not_found, 0u);
  EXPECT_EQ(snapshot.connections, trace.sessions().size());
  cluster.Stop();
}

TEST(ProtoClusterTest, EveryPolicyMechanismServesCorrectly) {
  struct Combo {
    Policy policy;
    Mechanism mechanism;
  };
  for (const Combo combo : {Combo{Policy::kWrr, Mechanism::kSingleHandoff},
                            Combo{Policy::kLard, Mechanism::kSingleHandoff},
                            Combo{Policy::kExtendedLard, Mechanism::kBackEndForwarding},
                            Combo{Policy::kExtendedLard, Mechanism::kRelayingFrontEnd}}) {
    const Trace trace = TestTrace(7);
    Cluster cluster(BaseConfig(2, combo.policy, combo.mechanism), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    const LoadResult result = Drive(cluster, trace, /*http10=*/false, /*clients=*/6);
    EXPECT_EQ(result.responses_ok, trace.total_requests())
        << PolicyName(combo.policy) << "/" << MechanismName(combo.mechanism);
    EXPECT_EQ(result.responses_bad, 0u);
    cluster.Stop();
  }
}

TEST(ProtoClusterTest, Http10ModeWorks) {
  const Trace trace = TestTrace(11);
  Cluster cluster(BaseConfig(2, Policy::kLard, Mechanism::kSingleHandoff), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace, /*http10=*/true);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  // One connection per request at the front-end.
  EXPECT_EQ(cluster.Snapshot().connections, trace.total_requests());
  cluster.Stop();
}

TEST(ProtoClusterTest, ExtLardUsesLateralFetches) {
  // Force forwarding: single hot page set cached on node A, connections
  // arriving with busy disks. With enough load and tiny caches the extended
  // LARD policy must forward at least some requests.
  SyntheticTraceConfig config;
  config.seed = 5;
  config.num_pages = 200;    // working set >> per-node cache
  config.num_sessions = 300;
  config.max_size_bytes = 64 * 1024;
  const Trace trace = GenerateSyntheticTrace(config);

  ClusterConfig cluster_config = BaseConfig(3, Policy::kExtendedLard,
                                            Mechanism::kBackEndForwarding);
  cluster_config.backend_cache_bytes = 1ull * 1024 * 1024;
  cluster_config.disk_time_scale = 0.05;  // slower disk -> busier queues
  cluster_config.params.low_disk_queue_threshold = 1;  // forward aggressively
  Cluster cluster(cluster_config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace, false, 16);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_GT(snapshot.consults, 0u);
  EXPECT_GT(snapshot.lateral_out, 0u) << "expected some back-end forwarding";
  cluster.Stop();
}

TEST(ProtoClusterTest, UnknownPathsGet404) {
  Trace trace = TestTrace(13);
  Cluster cluster(BaseConfig(2, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // Hand-rolled request for a path outside the catalog.
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  const std::string request = "GET /no/such/file HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd.value().get(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(reply.find("404"), std::string::npos);
  EXPECT_EQ(cluster.Snapshot().not_found, 1u);
  cluster.Stop();
}

TEST(ProtoClusterTest, SingleNodeCluster) {
  const Trace trace = TestTrace(17);
  Cluster cluster(BaseConfig(1, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(cluster.Snapshot().lateral_out, 0u);  // nowhere to forward
  cluster.Stop();
}

TEST(ProtoClusterTest, LardConcentratesTargetsPerNode) {
  // With LARD, each node should see a subset of the working set: total
  // distinct-target spread across nodes ~ partitioning. We verify via hit
  // rates: LARD's aggregate hit rate must beat WRR's on the same workload.
  SyntheticTraceConfig config;
  config.seed = 23;
  config.num_pages = 120;
  config.num_sessions = 400;
  config.max_size_bytes = 64 * 1024;
  const Trace trace = GenerateSyntheticTrace(config);

  double lard_hits = 0;
  double wrr_hits = 0;
  {
    Cluster cluster(BaseConfig(3, Policy::kLard, Mechanism::kSingleHandoff), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    (void)Drive(cluster, trace, false, 12);
    lard_hits = cluster.Snapshot().cache_hit_rate;
    cluster.Stop();
  }
  {
    Cluster cluster(BaseConfig(3, Policy::kWrr, Mechanism::kSingleHandoff), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    (void)Drive(cluster, trace, false, 12);
    wrr_hits = cluster.Snapshot().cache_hit_rate;
    cluster.Stop();
  }
  EXPECT_GT(lard_hits, wrr_hits) << "LARD should aggregate the node caches";
}

TEST(ProtoClusterTest, LoadGeneratorTimesSubMillisecondBatches) {
  // A warm cache serves a batch in a fraction of a millisecond. The load
  // generator's latencies must resolve that, not read 0 or 1 ms.
  const Trace trace = TestTrace(13);
  ClusterConfig config = BaseConfig(2, Policy::kExtendedLard, Mechanism::kBackEndForwarding);
  config.backend_cache_bytes = 32ull * 1024 * 1024;  // the whole corpus fits
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  (void)Drive(cluster, trace, /*http10=*/false, /*clients=*/2);  // warm every cache
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 2;
  load.record_latencies = true;
  const LoadResult result = RunLoad(load, trace);
  cluster.Stop();
  ASSERT_EQ(result.responses_ok, result.requests);
  ASSERT_FALSE(result.latency_samples.empty());
  EXPECT_GT(result.mean_batch_latency_ms, 0.0);
  EXPECT_NE(result.mean_batch_latency_ms, std::round(result.mean_batch_latency_ms));
  EXPECT_GT(result.p95_batch_latency_ms, 0.0);
  EXPECT_NE(result.p95_batch_latency_ms, std::round(result.p95_batch_latency_ms))
      << "p95 is a whole number of ms: batches timed with a ms clock?";
  size_t whole_ms = 0;
  for (const LatencySample& sample : result.latency_samples) {
    whole_ms += sample.latency_ms == std::round(sample.latency_ms) ? 1 : 0;
  }
  EXPECT_LE(whole_ms * 100, result.latency_samples.size())
      << whole_ms << " of " << result.latency_samples.size() << " batches read a whole ms";
}

TEST(ProtoClusterTest, StopIsIdempotent) {
  const Trace trace = TestTrace(29);
  Cluster cluster(BaseConfig(2, Policy::kWrr, Mechanism::kSingleHandoff), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  cluster.Stop();
  cluster.Stop();
}

}  // namespace
}  // namespace lard
