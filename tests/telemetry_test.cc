// Tests for the telemetry subsystem: registry semantics, histogram merges
// that are associative/commutative and invariant to how recording work was
// partitioned across the thread pool, deterministic trace-ring drop
// accounting, and byte-exact exporter output (the Chrome trace pins to a
// golden file). The multi-threaded cases double as ASan/UBSan targets for
// the lock-free shard fast path.

#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace rod::telemetry {
namespace {

TEST(TelemetryTest, CountersAccumulate) {
  Telemetry tel;
  Counter c = tel.counter("engine.events");
  c.Add();
  c.Add(41);
  const MetricsSnapshot snap = tel.Snapshot();
  EXPECT_EQ(snap.counters.at("engine.events"), 42u);
}

TEST(TelemetryTest, RegistrationIsIdempotent) {
  Telemetry tel;
  tel.counter("x").Add(1);
  tel.counter("x").Add(2);
  tel.Count("x");
  const MetricsSnapshot snap = tel.Snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.at("x"), 4u);
}

TEST(TelemetryTest, GaugeKeepsLastWrittenValue) {
  Telemetry tel;
  Gauge g = tel.gauge("pool.queue_depth");
  g.Set(3.0);
  g.Set(7.5);
  EXPECT_EQ(tel.Snapshot().gauges.at("pool.queue_depth"), 7.5);
}

TEST(TelemetryTest, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.Add(5);  // must not crash
  g.Set(1.0);
  h.Record(1.0);
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(g.valid());
  EXPECT_FALSE(h.valid());
}

TEST(TelemetryTest, RegistrationBeyondCapacityReturnsInertHandles) {
  Telemetry tel;
  for (int i = 0; i < 300; ++i) {
    Counter c = tel.counter("c" + std::to_string(i));
    c.Add(1);  // over-cap handles must be safe no-ops
  }
  const MetricsSnapshot snap = tel.Snapshot();
  EXPECT_EQ(snap.counters.size(), 256u);
  EXPECT_EQ(snap.counters.at("c0"), 1u);
  EXPECT_EQ(snap.counters.at("c255"), 1u);
  EXPECT_EQ(snap.counters.count("c256"), 0u);
  // Cap overflow is counted, not silent: 300 - 256 refused registrations.
  EXPECT_EQ(snap.dropped_registrations, 44u);
  // Re-registering an existing name is idempotent, not a drop.
  tel.counter("c0");
  EXPECT_EQ(tel.Snapshot().dropped_registrations, 44u);
}

TEST(TelemetryTest, GaugeMaxRatchetsUpward) {
  Telemetry tel;
  Gauge g = tel.gauge("event_queue.size_high_water");
  g.Max(3.0);
  g.Max(9.0);
  g.Max(5.0);  // below the high water: ignored
  EXPECT_EQ(tel.Snapshot().gauges.at("event_queue.size_high_water"), 9.0);
  // An external reset (the Aggregator's job) re-arms the ratchet.
  tel.SetGauge("event_queue.size_high_water", 0.0);
  g.Max(4.0);
  EXPECT_EQ(tel.Snapshot().gauges.at("event_queue.size_high_water"), 4.0);
}

TEST(TelemetryTest, SnapshotTraceCopiesRingsInOrder) {
  TelemetryOptions options;
  options.manual_clock = true;
  Telemetry tel(options);
  {
    TraceSpan span(&tel, "engine", "run", uint64_t{7});
    tel.AdvanceClock(100.0);
  }
  tel.RecordInstant("engine", "crash", 2, /*has_arg=*/true);
  const std::vector<TraceEventView> events = tel.SnapshotTrace();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "run");
  EXPECT_FALSE(events[0].instant);
  EXPECT_EQ(events[0].dur_us, 100.0);
  EXPECT_TRUE(events[0].has_arg);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_STREQ(events[1].name, "crash");
  EXPECT_TRUE(events[1].instant);
  EXPECT_EQ(events[1].arg, 2u);
}

TEST(TelemetryTest, HistogramSnapshotBasics) {
  Telemetry tel;
  Histogram h = tel.histogram("lat");
  h.Record(1.0);
  h.Record(2.0);
  h.Record(4.0);
  const HistogramSnapshot s = tel.Snapshot().histograms.at("lat");
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 7.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean(), 7.0 / 3.0);
  // Exactly one sample per power-of-two bucket.
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0].first, 1.0);
  EXPECT_EQ(s.buckets[1].first, 2.0);
  EXPECT_EQ(s.buckets[2].first, 4.0);
  for (const auto& [upper, n] : s.buckets) EXPECT_EQ(n, 1u);
}

TEST(TelemetryTest, HistogramQuantileWithinOneBucketAndClamped) {
  Telemetry tel;
  Histogram h = tel.histogram("lat");
  for (int v = 1; v <= 100; ++v) h.Record(static_cast<double>(v));
  const HistogramSnapshot s = tel.Snapshot().histograms.at("lat");
  const double p50 = s.Quantile(0.50);
  // Bucket resolution is sqrt(2): the p50 estimate is the upper bound of
  // the bucket holding the 50th sample, clamped to [min, max].
  EXPECT_GE(p50, 50.0 / 1.4143);
  EXPECT_LE(p50, 50.0 * 1.4143);
  EXPECT_GE(s.Quantile(0.0), s.min);
  EXPECT_LE(s.Quantile(1.0), s.max);
  EXPECT_EQ(s.Quantile(1.0), 100.0);
}

TEST(TelemetryTest, HistogramMergeIsOrderIndependent) {
  // The same multiset recorded in opposite orders must merge to the same
  // snapshot: bucket increments commute, and the exactly-representable
  // values make the double sum exact in every order.
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(0.5 * ((i * 37) % 101));
  Telemetry forward;
  Telemetry backward;
  Histogram hf = forward.histogram("h");
  Histogram hb = backward.histogram("h");
  for (size_t i = 0; i < values.size(); ++i) {
    hf.Record(values[i]);
    hb.Record(values[values.size() - 1 - i]);
  }
  const HistogramSnapshot a = forward.Snapshot().histograms.at("h");
  const HistogramSnapshot b = backward.Snapshot().histograms.at("h");
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

/// Records a fixed multiset of values and counter increments partitioned
/// across `num_threads` pool workers, then snapshots.
MetricsSnapshot RunPartitioned(size_t num_threads) {
  Telemetry tel;
  Histogram hist = tel.histogram("lat");
  Counter ctr = tel.counter("n");
  ThreadPool pool(num_threads);
  constexpr size_t kN = 5000;
  ParallelFor(pool, num_threads, kN, [&](size_t i) {
    // Multiples of 0.5: the shard-order double sum is exact, so it cannot
    // depend on the merge order.
    hist.Record(0.5 * static_cast<double>((i * 13) % 257));
    ctr.Add();
  });
  // ParallelFor blocks until every index ran, so the shards are quiescent.
  return tel.Snapshot();
}

TEST(TelemetryTest, SnapshotInvariantToThreadCount) {
  const MetricsSnapshot base = RunPartitioned(1);
  ASSERT_EQ(base.counters.at("n"), 5000u);
  for (size_t threads : {2u, 4u, 8u}) {
    const MetricsSnapshot snap = RunPartitioned(threads);
    EXPECT_EQ(snap.counters.at("n"), base.counters.at("n")) << threads;
    const HistogramSnapshot& a = base.histograms.at("lat");
    const HistogramSnapshot& b = snap.histograms.at("lat");
    EXPECT_EQ(a.count, b.count) << threads;
    EXPECT_EQ(a.sum, b.sum) << threads;
    EXPECT_EQ(a.min, b.min) << threads;
    EXPECT_EQ(a.max, b.max) << threads;
    EXPECT_EQ(a.buckets, b.buckets) << threads;
  }
}

TEST(TelemetryTest, TraceRingDropCountsAreDeterministic) {
  for (int repeat = 0; repeat < 2; ++repeat) {
    TelemetryOptions options;
    options.ring_capacity = 4;
    Telemetry tel(options);
    for (int i = 0; i < 10; ++i) {
      TraceSpan span(&tel, "test", "work");
    }
    const MetricsSnapshot snap = tel.Snapshot();
    EXPECT_EQ(snap.trace_events_recorded, 4u);
    EXPECT_EQ(snap.trace_events_dropped, 6u);
  }
}

TEST(TelemetryTest, CaptureTracesOffRecordsNothing) {
  TelemetryOptions options;
  options.capture_traces = false;
  Telemetry tel(options);
  {
    TraceSpan span(&tel, "test", "work");
  }
  tel.RecordInstant("test", "instant");
  const MetricsSnapshot snap = tel.Snapshot();
  EXPECT_EQ(snap.trace_events_recorded, 0u);
  EXPECT_EQ(snap.trace_events_dropped, 0u);
}

TEST(TelemetryTest, NullSinkSpansAreNoOps) {
  TraceSpan span(nullptr, "test", "work");
  span.End();  // must not crash
  ROD_TRACE_SPAN(nullptr, "test", "macro");
  Telemetry* null_tel = nullptr;
  ROD_TRACE_SPAN(null_tel, "test", "macro2");
}

TEST(TelemetryTest, SpanEndIsIdempotent) {
  Telemetry tel;
  TraceSpan span(&tel, "test", "work");
  span.End();
  span.End();
  EXPECT_EQ(tel.Snapshot().trace_events_recorded, 1u);
}

TEST(TelemetryTest, MetricsJsonIsDeterministic) {
  Telemetry tel;
  tel.Count("c", 2);
  tel.SetGauge("g", 1.5);
  tel.Observe("h", 1.0);
  std::ostringstream out;
  tel.WriteMetricsJson(out);
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"counters\": {\n"
            "    \"c\": 2\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": 1.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, "
            "\"mean\": 1, \"p50\": 1, \"p95\": 1, \"p99\": 1, "
            "\"buckets\": [[1, 1]]}\n"
            "  },\n"
            "  \"trace\": {\"recorded\": 0, \"dropped\": 0},\n"
            "  \"registry\": {\"dropped_registrations\": 0}\n"
            "}\n");
}

TEST(TelemetryTest, ChromeTraceMatchesGoldenFile) {
  // Scripted single-threaded recording on the manual clock: the export is
  // a pure function of the script, pinned byte-for-byte to the golden.
  // Regenerate with: tests/golden/README applies (re-run this scenario and
  // overwrite the file) whenever the exporter format changes on purpose.
  TelemetryOptions options;
  options.manual_clock = true;
  Telemetry tel(options);
  {
    TraceSpan setup(&tel, "engine", "setup");
    tel.AdvanceClock(100.0);
  }
  tel.AdvanceClock(50.0);
  {
    TraceSpan run(&tel, "engine", "run", uint64_t{42});
    tel.AdvanceClock(1000.25);
    tel.RecordInstant("engine", "calendar_resize", 64, /*has_arg=*/true);
    tel.AdvanceClock(500.0);
  }
  tel.RecordInstant("supervisor", "detect");
  std::ostringstream out;
  tel.WriteChromeTrace(out);

  std::ifstream golden(std::string(ROD_TESTS_SOURCE_DIR) +
                       "/golden/chrome_trace.json");
  ASSERT_TRUE(golden.good()) << "missing golden file";
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(out.str(), want.str());
}

TEST(TelemetryTest, ManualClockOnlyAdvancesExplicitly) {
  TelemetryOptions options;
  options.manual_clock = true;
  Telemetry tel(options);
  EXPECT_EQ(tel.NowMicros(), 0.0);
  tel.AdvanceClock(12.5);
  EXPECT_EQ(tel.NowMicros(), 12.5);
}

}  // namespace
}  // namespace rod::telemetry
