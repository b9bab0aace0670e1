// Copyright (c) the ROD reproduction authors.

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "runtime/sweep.h"
#include "telemetry/json_writer.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

namespace {

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Root index of every span (parents precede children).
std::vector<int32_t> Roots(const std::vector<SpanRecord>& spans) {
  std::vector<int32_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int32_t>(i) : root[static_cast<size_t>(p)];
  }
  return root;
}

bool NameIs(const char* a, const char* b) { return std::string_view(a) == b; }

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHarness:
      return "harness";
    case Layer::kQuery:
      return "query";
    case Layer::kPlacement:
      return "placement";
    case Layer::kGeometry:
      return "geometry";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kTrace:
      return "trace";
    case Layer::kSweep:
      return "sweep";
  }
  return "unknown";
}

int32_t Tracer::Begin(const char* name, Layer layer) {
  if (!enabled_) return -1;
  spans_.push_back({name, layer, NowNs(), 0, open_});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  SpanRecord& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  rod::telemetry::JsonWriter w(out, 17);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    w.BeginObjectInline();
    w.Key("name").String(s.name);
    w.Key("cat").String(LayerName(s.layer));
    w.Key("ph").String("X");
    w.Key("ts").Double(static_cast<double>(s.start_ns - origin) * 1e-3);
    w.Key("dur").Double(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(1);
    w.Key("args").BeginObjectInline();
    w.Key("id").Uint(i);
    w.Key("parent").Int(s.parent);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

std::vector<double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans,
                                       const char* root_name) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  const std::vector<int32_t> root = Roots(spans);
  std::vector<double> self(kNumLayers, 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!NameIs(spans[static_cast<size_t>(root[i])].name, root_name)) continue;
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self[static_cast<size_t>(spans[i].layer)] += (dur - child_ns[i]) * 1e-9;
  }
  return self;
}

std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const char* name, const char* root_name) {
  const std::vector<int32_t> root = Roots(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (NameIs(spans[i].name, name) &&
        NameIs(spans[static_cast<size_t>(root[i])].name, root_name)) {
      out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                    1e-9);
    }
  }
  return out;
}

void MetricSet::Add(std::string name, std::string unit, bool deterministic) {
  metrics_.push_back({std::move(name), std::move(unit), 0.0, deterministic});
}

void MetricSet::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

double MetricSet::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

MetricSet PerLayerMetricTable() {
  MetricSet m;
  m.Add("query.load_model_ms_p50", "ms");
  m.Add("placement.rod_place_ms_p50", "ms");
  m.Add("placement.repair_ms_p50", "ms");
  m.Add("placement.ops_moved", "count", true);
  m.Add("geometry.ratio_ms_p50", "ms");
  m.Add("geometry.samples_per_s", "1/s");
  m.Add("geometry.sample_build_ms", "ms");
  m.Add("runtime.compile_ms", "ms");
  m.Add("runtime.simulate_ms_p50", "ms");
  m.Add("runtime.events_per_s", "1/s");
  m.Add("runtime.events_per_tuple", "count", true);
  m.Add("runtime.sim_latency_p99_ms", "ms", true);
  m.Add("runtime.shed_frac", "ratio", true);
  m.Add("runtime.queue_high_water", "count", true);
  m.Add("runtime.control_consults", "count", true);
  m.Add("runtime.ops_moved", "count", true);
  m.Add("runtime.saturated_runs", "count", true);
  m.Add("trace.store_write_ms", "ms");
  m.Add("trace.open_ms", "ms");
  m.Add("trace.replay_records_per_s", "1/s");
  m.Add("sweep.search_ms_p50", "ms");
  m.Add("sweep.cpu_util", "ratio");
  m.Add("sweep.speedup_vs_1", "ratio");
  for (size_t l = 0; l < kNumLayers; ++l) {
    m.Add(std::string(LayerName(static_cast<Layer>(l))) + ".self_share",
          "ratio");
  }
  return m;
}

double Median(std::vector<double> v) { return rod::Percentile(std::move(v), 0.5); }

std::vector<uint64_t> DeckSeeds(uint64_t seed, uint64_t role, size_t n) {
  return rod::sim::ForkSeeds(rod::sim::ForkSeeds(seed, role + 1)[role], n);
}

std::vector<rod::query::QueryGraph> MakeForests(
    uint64_t seed, uint64_t role, size_t n,
    const rod::query::GraphGenOptions& options) {
  std::vector<rod::query::QueryGraph> forests;
  forests.reserve(n);
  for (const uint64_t s : DeckSeeds(seed, role, n)) {
    rod::Rng rng(s);
    forests.push_back(rod::query::GenerateRandomTrees(options, rng));
  }
  return forests;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"place", "steady",
                                                 "overload", "boundary"};
  return names;
}

rod::Result<RunReport> Run(const RunConfig& config) {
  std::unique_ptr<Workload> workload;
  if (config.workload == "place") {
    workload = MakePlaceWorkload(config.seed);
  } else if (config.workload == "steady") {
    workload = MakeSteadyWorkload(config.seed);
  } else if (config.workload == "overload") {
    workload = MakeOverloadWorkload(config.seed, config.out_dir);
  } else if (config.workload == "boundary") {
    workload = MakeBoundaryWorkload(config.seed);
  } else {
    return rod::Status::InvalidArgument("unknown workload: " + config.workload);
  }
  if (!(config.seconds > 0.0)) {
    return rod::Status::InvalidArgument("need seconds > 0");
  }

  Tracer tracer;
  RunReport report;
  auto setup = [&]() -> rod::Status {
    ScopedSpan span(tracer, "setup", Layer::kHarness);
    const int64_t start = NowNs();
    ROD_RETURN_IF_ERROR(workload->Setup(tracer));
    report.setup_s.push_back(SecondsSince(start));
    return rod::Status::OK();
  };

  ROD_RETURN_IF_ERROR(setup());
  const size_t deck = workload->deck_size();
  const int64_t t0 = NowNs();
  while (true) {
    const double elapsed = SecondsSince(t0);
    if (elapsed >= config.seconds &&
        (!config.trace || !report.traced_ms.empty())) {
      break;
    }
    // Traced and untraced passes alternate, so both see the same host
    // regimes and their difference is the cost of the spans.
    tracer.set_enabled(config.trace && report.passes % 2 == 1);
    // Set-up k of n runs once k/n of the run has elapsed, so the set-up
    // samples straddle the host's slow and fast windows.
    if (report.setup_s.size() < kSetupsPerProcess &&
        elapsed >= config.seconds * static_cast<double>(report.setup_s.size()) /
                       static_cast<double>(kSetupsPerProcess)) {
      ROD_RETURN_IF_ERROR(setup());
    }
    for (size_t i = 0; i < deck; ++i) {
      StepResult r;
      const int64_t start = NowNs();
      {
        ScopedSpan span(tracer, "step", Layer::kHarness);
        r = workload->Step(i, tracer);
      }
      const double dt = SecondsSince(start);
      const bool sabotaged =
          static_cast<int64_t>(report.attempted) == config.sabotage_step;
      ++report.attempted;
      if (!r.ok || sabotaged) ++report.failed;
      if (tracer.enabled()) {
        report.traced_ms.push_back(dt * 1e3);
      } else {
        report.untraced_ms.push_back(dt * 1e3);
        report.work += r.work;
        report.work_seconds += dt;
      }
    }
    ++report.passes;
  }
  tracer.set_enabled(false);
  report.failed += workload->PostRunFailures();
  report.deck_size = deck;
  report.threads = workload->threads();
  report.peak_rss_mib = PeakRssMib();
  report.quality = workload->Quality();

  report.per_layer = PerLayerMetricTable();
  MetricSet& p = report.per_layer;
  workload->LayerMetrics(tracer.spans(), p);
  if (config.trace) {
    const std::vector<double> self = SelfSecondsByLayer(tracer.spans(), "step");
    double total = 0.0;
    for (const double s : self) total += s;
    for (size_t l = 0; l < kNumLayers; ++l) {
      p.Set(std::string(LayerName(static_cast<Layer>(l))) + ".self_share",
            Ratio(self[l], total));
    }
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    std::ofstream out(path);
    tracer.WriteChromeTrace(out);
    if (!out) return rod::Status::Internal("cannot write " + path);
  }
  return report;
}

namespace {

// Non-finite values are written as null, which run.py rejects.
void WriteNumber(double v, rod::telemetry::JsonWriter& w) {
  if (std::isfinite(v)) {
    w.Double(v);
  } else {
    w.Null();
  }
}

}  // namespace

void PrintReport(const RunConfig& config, const RunReport& report,
                 std::ostream& out) {
  {
    rod::telemetry::JsonWriter w(out, 17);
    w.BeginObjectInline();
    w.Key("provenance").BeginObjectInline();
    w.Key("workload").String(config.workload);
    w.Key("seed").Uint(config.seed);
    w.Key("seconds").Double(config.seconds);
    w.Key("trace").Bool(config.trace);
    w.Key("git_describe").String(PERFBENCH_GIT_DESCRIBE);
    w.Key("compiler").String(rod::bench::CompilerVersion());
    w.Key("cxx_flags").String(rod::bench::BenchCxxFlags());
    w.Key("simd_isa").String(rod::geom::ActiveSimdIsa());
    w.Key("nproc").Uint(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.Key("threads").Uint(report.threads);
    w.Key("deck_size").Uint(report.deck_size);
    w.Key("passes").Uint(report.passes);
    w.Key("untraced_steps").Uint(report.untraced_ms.size());
    w.Key("traced_steps").Uint(report.traced_ms.size());
    w.Key("setups").Uint(report.setup_s.size());
    w.EndObject();
    w.EndObject();
    out << "\n";
  }
  rod::telemetry::JsonWriter w(out, 17);
  w.BeginObjectInline();
  w.Key("report").BeginObjectInline();
  w.Key("attempted").Uint(report.attempted);
  w.Key("failed").Uint(report.failed);
  for (const auto& [key, values] :
       {std::pair{"untraced_ms", &report.untraced_ms},
        std::pair{"traced_ms", &report.traced_ms},
        std::pair{"setup_s", &report.setup_s}}) {
    w.Key(key).BeginArrayInline();
    for (const double v : *values) WriteNumber(v, w);
    w.EndArray();
  }
  w.Key("work");
  WriteNumber(report.work, w);
  w.Key("work_seconds");
  WriteNumber(report.work_seconds, w);
  w.Key("peak_rss_mib");
  WriteNumber(report.peak_rss_mib, w);
  // Identical in every process of one seed; run.py checks that.
  w.Key("fingerprint").BeginObjectInline();
  w.Key("quality");
  WriteNumber(report.quality, w);
  for (const Metric& m : report.per_layer.metrics()) {
    if (!m.deterministic) continue;
    w.Key(m.name);
    WriteNumber(m.value, w);
  }
  w.EndObject();
  w.Key("per_layer").BeginObjectInline();
  for (const Metric& m : report.per_layer.metrics()) {
    w.Key(m.name).BeginObjectInline();
    w.Key("value");
    WriteNumber(m.value, w);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
  out << "\n";
}

}  // namespace perfbench
