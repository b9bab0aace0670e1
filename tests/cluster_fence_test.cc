// Both ends of the plan-diff fence validate what the other process sent.
// Each test runs one real cluster endpoint in a thread and plays the
// other end by hand over a loopback FrameConn: a fake coordinator sends a
// worker a bad plan diff, and a fake worker acks the coordinator's plan
// with the wrong version. The real endpoint must stop with
// kInvalidArgument and never ack what it rejected.

#include <gtest/gtest.h>

#include <thread>

#include "cluster/coordinator.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "query/query_graph.h"

namespace rod::cluster {
namespace {

constexpr double kTimeout = 10.0;

/// in -> a -> b: two operators, one input stream.
query::QueryGraph ChainGraph() {
  query::QueryGraph graph;
  const auto in = graph.AddInputStream("in");
  auto a = graph.AddOperator(
      {.name = "a", .kind = query::OperatorKind::kMap, .cost = 1e-4,
       .selectivity = 1.0},
      {query::StreamRef::Input(in)});
  EXPECT_TRUE(a.ok());
  auto b = graph.AddOperator(
      {.name = "b", .kind = query::OperatorKind::kMap, .cost = 1e-4,
       .selectivity = 1.0},
      {query::StreamRef::Op(*a)});
  EXPECT_TRUE(b.ok());
  return graph;
}

/// A real Worker in a thread, registered with a hand-played coordinator
/// and running plan v1 (both operators on worker 0 of a 1-worker cluster).
class FakeCoordinator {
 public:
  FakeCoordinator() {
    EXPECT_TRUE(listener_.Listen(0).ok());
    WorkerOptions options;
    options.coordinator_port = listener_.port();
    options.serve_http = false;
    thread_ = std::thread([this, options] {
      worker_status_ = RunWorker(options);
    });

    auto conn = listener_.Accept(kTimeout);
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    if (!conn.ok()) return;
    conn_ = std::move(conn.value());
    Frame frame;
    EXPECT_TRUE(conn_.Recv(&frame).ok());
    auto hello = Decode<HelloMsg>(frame.payload);
    EXPECT_TRUE(hello.ok());
    EXPECT_TRUE(
        conn_.Send(MsgType::kWelcome, Encode(WelcomeMsg{0, 1, 60.0, 120.0}))
            .ok());
    PlanMsg plan;
    plan.version = 1;
    plan.graph = ChainGraph();
    plan.assignment = {0, 0};
    plan.capacities = {1.0};
    plan.endpoints = {{0, hello.ok() ? hello->data_port : uint16_t{0}}};
    plan.source_owner = {0};
    EXPECT_TRUE(conn_.Send(MsgType::kPlan, Encode(plan)).ok());
    EXPECT_TRUE(conn_.Recv(&frame).ok());
    EXPECT_EQ(frame.type, MsgType::kPlanAck);
  }

  ~FakeCoordinator() {
    conn_.Close();  // A worker still running sees its coordinator go.
    if (thread_.joinable()) thread_.join();
  }

  /// Sends `diff`, then reports what the worker answered: the error that
  /// ended the connection, or an ack (after which the worker is told to
  /// shut down).
  Status SendDiff(const PlanDiffMsg& diff) {
    ROD_RETURN_IF_ERROR(conn_.Send(MsgType::kPlanDiff, Encode(diff)));
    Frame frame;
    ROD_RETURN_IF_ERROR(conn_.Recv(&frame));
    (void)conn_.Send(MsgType::kShutdown, "");
    return Status::Internal(std::string("worker answered ") +
                            MsgTypeName(frame.type));
  }

  /// The worker's exit status (waits for it to stop).
  Status WorkerStatus() {
    thread_.join();
    return worker_status_;
  }

 private:
  FrameListener listener_;
  FrameConn conn_;
  Status worker_status_;
  std::thread thread_;
};

TEST(ClusterFenceTest, WorkerRejectsDiffToOutOfRangeWorker) {
  FakeCoordinator coordinator;
  PlanDiffMsg diff;
  diff.version = 2;
  diff.moves = {{1, 0, 5}};  // Worker 5 of a 1-worker cluster.
  EXPECT_EQ(coordinator.SendDiff(diff).code(), StatusCode::kUnavailable)
      << "the worker must close the connection without acking";
  EXPECT_EQ(coordinator.WorkerStatus().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFenceTest, WorkerRejectsStaleDiffVersion) {
  FakeCoordinator coordinator;
  PlanDiffMsg diff;
  diff.version = 1;  // Not newer than the installed plan.
  diff.moves = {{1, 0, 0}};
  EXPECT_EQ(coordinator.SendDiff(diff).code(), StatusCode::kUnavailable);
  EXPECT_EQ(coordinator.WorkerStatus().code(), StatusCode::kInvalidArgument);
}

/// Registers as a worker with the coordinator on `port` and acks its
/// plan with a version one past the one shipped.
void AckPlanWithWrongVersion(uint16_t port) {
  auto conn = FrameConn::DialLoopback(port, kTimeout);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  HelloMsg hello;
  hello.data_port = 1;
  ASSERT_TRUE(conn->Send(MsgType::kHello, Encode(hello)).ok());
  Frame frame;
  ASSERT_TRUE(conn->Recv(&frame).ok());
  auto welcome = Decode<WelcomeMsg>(frame.payload);
  ASSERT_TRUE(welcome.ok());
  ASSERT_TRUE(conn->Recv(&frame).ok());
  ASSERT_EQ(frame.type, MsgType::kPlan);
  auto plan = Decode<PlanMsg>(frame.payload);
  ASSERT_TRUE(plan.ok());
  const PlanAckMsg ack{plan->version + 1, welcome->worker_id};
  ASSERT_TRUE(conn->Send(MsgType::kPlanAck, Encode(ack)).ok());
}

TEST(ClusterFenceTest, CoordinatorRejectsPlanAckForWrongVersion) {
  CoordinatorOptions options;
  options.expected_workers = 1;
  options.register_timeout = kTimeout;
  options.ack_timeout = kTimeout;
  Coordinator coordinator(ChainGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());
  Status run_status;
  std::thread run([&] { run_status = coordinator.Run(); });
  // The fake worker hangs up after its ack, so a coordinator that took
  // the ack would fail later, on the lost connection, with kUnavailable.
  AckPlanWithWrongVersion(coordinator.port());
  run.join();
  EXPECT_EQ(run_status.code(), StatusCode::kInvalidArgument)
      << run_status.ToString();
}

}  // namespace
}  // namespace rod::cluster
