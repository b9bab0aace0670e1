// End-to-end cluster tests with real processes: the coordinator runs in
// the test process while each worker is a spawned rod_worker binary that
// runs until shutdown. The chaos case kill -9's one worker mid-run and
// asserts the full recovery pipeline — missed-heartbeat detection,
// supervisor-driven plan diff (pause -> drain -> reassign -> resume),
// survivor completion, and a populated IncidentReport.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "common/random.h"
#include "query/graph_gen.h"
#include "telemetry/json_reader.h"

namespace rod::cluster {
namespace {

query::QueryGraph TestGraph() {
  query::GraphGenOptions options;
  options.num_input_streams = 3;
  options.ops_per_tree = 6;
  Rng rng(7);
  return query::GenerateRandomTrees(options, rng);
}

CoordinatorOptions FastOptions() {
  CoordinatorOptions options;
  options.expected_workers = 3;
  options.heartbeat_interval = 0.1;
  options.heartbeat_timeout = 0.5;
  options.duration = 2.0;
  options.default_rate = 200.0;
  options.finish_grace = 0.4;
  options.register_timeout = 20.0;
  return options;
}

/// Starts the built rod_worker binary against `port`; returns its pid.
/// The coordinator already runs threads by now, so the child execs at
/// once (posix_spawn) instead of running library code in a forked copy
/// of a multithreaded process.
pid_t SpawnWorker(uint16_t port, bool serve_http = false) {
  std::vector<std::string> args = {ROD_WORKER_BINARY, "--coordinator",
                                   std::to_string(port)};
  if (!serve_http) args.push_back("--no-http");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, ROD_WORKER_BINARY, nullptr, nullptr,
                               argv.data(), environ);
  EXPECT_EQ(rc, 0) << "posix_spawn " << ROD_WORKER_BINARY;
  return pid;
}

/// One raw loopback HTTP GET; returns the whole response (or "").
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Body of a 200 response; empty on any other status (or no response).
std::string HttpBody(const std::string& response) {
  if (response.find("HTTP/1.1 200") != 0) return "";
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// The value text of one exposition series (exact name + labels match),
/// or "" if the series is absent.
std::string SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos;
  if (text.rfind(needle, 0) == 0) {
    pos = 0;
  } else {
    pos = text.find("\n" + needle);
    if (pos == std::string::npos) return "";
    ++pos;
  }
  const size_t start = pos + needle.size();
  return text.substr(start, text.find('\n', start) - start);
}

int WaitFor(pid_t pid) {
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

TEST(ClusterE2eTest, ThreeWorkerRunCompletesAndAggregates) {
  Coordinator coordinator(TestGraph(), FastOptions());
  ASSERT_TRUE(coordinator.Listen().ok());

  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(SpawnWorker(coordinator.port()));

  const Status run = coordinator.Run();
  EXPECT_TRUE(run.ok()) << run.ToString();

  for (const pid_t pid : workers) {
    const int wstatus = WaitFor(pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }

  const ClusterReport& report = coordinator.report();
  EXPECT_EQ(report.num_workers, 3u);
  EXPECT_EQ(report.plan_version, 1u);
  EXPECT_FALSE(report.had_incident);
  EXPECT_GT(report.plan_ship_seconds, 0.0);
  EXPECT_LT(report.plan_ship_seconds, 5.0);
  // ~3 streams * 200/s * 2s of generation, minus tick rounding.
  EXPECT_GT(report.totals.generated, 600u);
  EXPECT_GT(report.totals.delivered, 0u);
  EXPECT_EQ(report.totals.lost_tuples, 0u);
  // Placement spreads operators, so tuples really crossed processes, and
  // every shipped batch was received by a peer.
  EXPECT_GT(report.totals.shipped, 0u);
  EXPECT_EQ(report.totals.shipped, report.totals.received);
  ASSERT_EQ(report.workers.size(), 3u);
  for (const auto& worker : report.workers) {
    EXPECT_TRUE(worker.alive);
    EXPECT_TRUE(worker.final_stats);
    // Every worker's clock got aligned during the sync burst. All three
    // processes share this machine's clock, so the estimated offset is
    // bounded by scheduling noise, not real skew.
    EXPECT_TRUE(worker.clock_synced);
    EXPECT_GT(worker.clock_rtt_us, 0.0);
    EXPECT_LT(std::abs(worker.clock_offset_us), 1e6);
  }
  // Tuples crossed processes, so the federated offset-corrected ship
  // latency histogram is populated and internally consistent.
  EXPECT_GT(report.ship_latency.count, 0u);
  EXPECT_GT(report.ship_latency.mean_us, 0.0);
  EXPECT_LE(report.ship_latency.p50_us, report.ship_latency.p99_us);
  EXPECT_LE(report.ship_latency.p99_us, report.ship_latency.max_us);
}

TEST(ClusterE2eTest, FederatedMetricsAgreeWithWorkerPlanes) {
  CoordinatorOptions options = FastOptions();
  options.serve_http = true;
  options.duration = 3.0;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());
  const uint16_t http_port = coordinator.http_port();
  ASSERT_NE(http_port, 0);

  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) {
    workers.push_back(SpawnWorker(coordinator.port(), /*serve_http=*/true));
  }

  // Mid-run scraper: once the coordinator is ready, poll until one
  // consistent scrape where every worker's own /metrics plane agrees
  // with its worker-labeled series in the federated /metrics. Counters
  // lag by at most one heartbeat, so disagreement is retried, not fatal.
  bool agreed = false;
  std::string failure = "scrape loop never saw a ready coordinator";
  std::thread scraper([&] {
    for (int attempt = 0; attempt < 200 && !agreed; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      if (HttpBody(HttpGet(http_port, "/readyz")).empty()) continue;
      const std::string summary = HttpBody(HttpGet(http_port, "/cluster.json"));
      auto cluster = telemetry::ParseJson(summary);
      if (!cluster.ok()) continue;
      const telemetry::JsonValue* members = cluster->Find("workers");
      if (members == nullptr || !members->is_array() ||
          members->items().size() != 3) {
        failure = "cluster.json missing 3 workers: " + summary;
        continue;
      }
      const std::string fed = HttpBody(HttpGet(http_port, "/metrics"));
      bool all = true;
      for (const telemetry::JsonValue& w : members->items()) {
        const int wid = static_cast<int>(w.NumberOr("worker_id", -1.0));
        const std::string name = w.StringOr("name", "");
        const auto wport = static_cast<uint16_t>(w.NumberOr("http_port", 0.0));
        const telemetry::JsonValue* clock = w.Find("clock");
        if (wport == 0 || clock == nullptr ||
            !clock->Find("synced")->boolean()) {
          failure = "worker not scrapeable/synced yet: " + summary;
          all = false;
          break;
        }
        const std::string plane = HttpBody(HttpGet(wport, "/metrics"));
        const std::string label =
            "{name=\"" + name + "\",worker=\"" + std::to_string(wid) + "\"}";
        // Exact agreement: the coordinator's clock estimate vs the last
        // kClockSync the worker installed, and the kStatsReport-federated
        // sync counter vs the worker's live one.
        for (const char* family :
             {"cluster_clock_offset_us", "cluster_clock_syncs"}) {
          const std::string fed_value = SeriesValue(fed, family + label);
          const std::string plane_value = SeriesValue(plane, family);
          if (fed_value.empty() || fed_value != plane_value) {
            failure = std::string(family) + label + ": federated=\"" +
                      fed_value + "\" plane=\"" + plane_value + "\"";
            all = false;
            break;
          }
        }
        if (!all) break;
        // Monotone counter: the federated cumulative is a recent snapshot
        // of the live series — positive and never ahead of it.
        const std::string fed_tuples =
            SeriesValue(fed, "cluster_tuples_processed" + label);
        const std::string plane_tuples =
            SeriesValue(plane, "cluster_tuples_processed");
        if (fed_tuples.empty() || plane_tuples.empty() ||
            std::strtod(fed_tuples.c_str(), nullptr) <= 0.0 ||
            std::strtod(fed_tuples.c_str(), nullptr) >
                std::strtod(plane_tuples.c_str(), nullptr)) {
          failure = "cluster_tuples_processed" + label + ": federated=\"" +
                    fed_tuples + "\" plane=\"" + plane_tuples + "\"";
          all = false;
          break;
        }
      }
      if (all) agreed = true;
    }
  });

  const Status run = coordinator.Run();
  scraper.join();
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (const pid_t pid : workers) {
    const int wstatus = WaitFor(pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }
  EXPECT_TRUE(agreed) << failure;
}

TEST(ClusterE2eTest, KillNineMidRunDetectsRepairsAndCompletes) {
  CoordinatorOptions options = FastOptions();
  options.duration = 3.0;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());

  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(SpawnWorker(coordinator.port()));

  // Real-process chaos: SIGKILL one worker mid-run — no cleanup, no
  // goodbye frame, exactly like an OOM kill or machine loss.
  std::thread killer([&workers] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    ::kill(workers[0], SIGKILL);
  });

  const Status run = coordinator.Run();
  killer.join();
  EXPECT_TRUE(run.ok()) << run.ToString();

  const int victim_status = WaitFor(workers[0]);
  EXPECT_TRUE(WIFSIGNALED(victim_status) &&
              WTERMSIG(victim_status) == SIGKILL);
  EXPECT_TRUE(WIFEXITED(WaitFor(workers[1])));
  EXPECT_TRUE(WIFEXITED(WaitFor(workers[2])));

  const ClusterReport& report = coordinator.report();
  ASSERT_TRUE(report.had_incident);
  const sim::IncidentReport& incident = report.incident;

  // Detection came from the heartbeat deadline: the gap between the last
  // proof of life and detection is at least the timeout and not wildly
  // more (generous slack for loaded CI machines).
  EXPECT_GE(incident.detect_time, incident.crash_time);
  const double detection_delay = incident.detect_time - incident.crash_time;
  EXPECT_GE(detection_delay, options.heartbeat_timeout * 0.9);
  EXPECT_LT(detection_delay, options.heartbeat_timeout + 5.0);

  // The supervisor re-homed the victim's operators via the plan-diff
  // protocol and the plan version advanced.
  EXPECT_TRUE(incident.recovered);
  EXPECT_GT(incident.operators_moved, 0u);
  EXPECT_GE(incident.plan_applied_time, incident.detect_time);
  EXPECT_GE(report.plan_version, 2u);

  // Exactly one worker died; the survivors reported final stats.
  size_t alive = 0, finals = 0;
  for (const auto& worker : report.workers) {
    alive += worker.alive ? 1 : 0;
    finals += worker.final_stats ? 1 : 0;
  }
  EXPECT_EQ(alive, 2u);
  EXPECT_EQ(finals, 2u);

  // The cluster kept delivering after repair, and the loss breakdown is
  // populated consistently (ships to the dead peer during the detection
  // window are network loss).
  EXPECT_GT(report.totals.delivered, 0u);
  EXPECT_EQ(incident.lost_tuples,
            incident.lost_queued + incident.lost_inflight +
                incident.lost_network + incident.rejected_inputs);
  EXPECT_GE(incident.availability, 0.0);
  EXPECT_LE(incident.availability, 1.0);

  // The repair's phase clocks were captured: detection delay matches the
  // heartbeat deadline math above, and every phase has a sane duration.
  ASSERT_TRUE(report.phases.valid);
  EXPECT_NEAR(report.phases.detect_seconds, detection_delay, 1e-9);
  EXPECT_GE(report.phases.pause_drain_seconds, 0.0);
  EXPECT_GE(report.phases.reassign_seconds, 0.0);
  EXPECT_GE(report.phases.resume_seconds, 0.0);
  EXPECT_GT(report.phases.pause_drain_seconds + report.phases.reassign_seconds +
                report.phases.resume_seconds,
            0.0);

  // Both survivors (and only they — the victim cannot answer) responded
  // to the kFreeze broadcast with a frozen flight-recorder snapshot.
  std::vector<uint32_t> survivors;
  for (const auto& worker : report.workers) {
    if (worker.alive) survivors.push_back(worker.worker_id);
  }
  EXPECT_EQ(report.frozen_workers, survivors);

  // The incident landed in the coordinator's flight recorder as the
  // distributed composite: engine-schema incident + repair phases +
  // embedded per-worker frozen snapshots.
  EXPECT_EQ(coordinator.flight_recorder().incident_count(), 1u);
  const std::vector<std::string> incidents =
      coordinator.flight_recorder().IncidentJsons();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_NE(incidents[0].find("\"phases\""), std::string::npos);
  EXPECT_NE(incidents[0].find("\"worker_snapshots\""), std::string::npos);
}

TEST(ClusterE2eTest, CoordinatorTimesOutWhenWorkersNeverRegister) {
  CoordinatorOptions options = FastOptions();
  options.register_timeout = 0.3;
  Coordinator coordinator(TestGraph(), options);
  const Status run = coordinator.Run();
  EXPECT_EQ(run.code(), StatusCode::kUnavailable) << run.ToString();
}

}  // namespace
}  // namespace rod::cluster
