// Copyright (c) the ROD reproduction authors.
//
// Umbrella header: the full public API of the Resilient Operator
// Distribution library. Include individual module headers instead when
// compile time matters.
//
// Layer map (bottom-up):
//   telemetry/ metric registry (counters/gauges/histograms), trace
//              spans, Chrome-trace + metrics-snapshot JSON exporters
//   common/    Status/Result, Rng, Matrix/Vector, statistics
//   query/     operators, query graphs, load models, linearization,
//              workload generators, text format, Graphviz export
//   geometry/  normalized feasible-set geometry, QMC volume (+ randomized
//              error bars), exact 2-D polygons, exact Lasserre volumes,
//              boundary analysis, ASCII plots
//   placement/ ROD (incl. incremental/repair), baselines, optimal search,
//              clustering, dynamic policies, evaluation & explanation
//   trace/     self-similar rate traces (b-model, ON/OFF, sinusoid),
//              Hurst analysis, CSV / timestamp I/O, and the segmented
//              binary arrival store (mmap reader, zero-copy replay)
//   runtime/   tuple-level DES engine, fluid simulator with migration
//              policies, statistics-driven calibration
//   cluster/   multi-process runtime: framed TCP protocol, worker and
//              coordinator processes, plan-diff reassignment

#ifndef ROD_ROD_H_
#define ROD_ROD_H_

#include "cluster/clock_sync.h"
#include "cluster/coordinator.h"
#include "cluster/frame.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "common/matrix.h"
#include "common/net.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "geometry/ascii_plot.h"
#include "geometry/boundary.h"
#include "geometry/exact_volume.h"
#include "geometry/feasible_set.h"
#include "geometry/hyperplane.h"
#include "geometry/polygon2d.h"
#include "geometry/qmc.h"
#include "geometry/sample_cache.h"
#include "geometry/simd_kernel.h"
#include "placement/baselines.h"
#include "placement/clustering.h"
#include "placement/correlation_policy.h"
#include "placement/dynamic.h"
#include "placement/evaluator.h"
#include "placement/optimal.h"
#include "placement/plan.h"
#include "placement/repair.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/graphviz.h"
#include "query/linearize.h"
#include "query/load_model.h"
#include "query/operator.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "runtime/calibrate.h"
#include "runtime/chaos.h"
#include "runtime/deployment.h"
#include "runtime/engine.h"
#include "runtime/fluid.h"
#include "runtime/metrics.h"
#include "runtime/supervisor.h"
#include "runtime/sweep.h"
#include "runtime/workload_driver.h"
#include "telemetry/json_reader.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_merge.h"
#include "trace/bmodel.h"
#include "trace/hurst.h"
#include "trace/io.h"
#include "trace/onoff.h"
#include "trace/store/format.h"
#include "trace/store/reader.h"
#include "trace/store/replay.h"
#include "trace/store/writer.h"
#include "trace/trace.h"

#endif  // ROD_ROD_H_
