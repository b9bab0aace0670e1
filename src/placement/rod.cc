#include "placement/rod.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/random.h"
#include "geometry/hyperplane.h"

namespace rod::place {

namespace {

constexpr double kClassITolerance = 1e-9;

/// Candidate metrics of placing the current unit on one node.
struct Candidate {
  bool class_one = false;     ///< Hyperplane stays above the ideal one.
  double plane_distance = 0;  ///< From the (possibly shifted) origin.
  double max_weight = 0;      ///< max_k w_ik after the assignment.
};

}  // namespace

Result<Placement> RodPlaceMatrix(
    const Matrix& op_coeffs, std::span<const double> total_coeffs,
    const SystemSpec& system, const RodOptions& options,
    std::span<const double> normalized_lower_bound,
    const std::vector<std::vector<size_t>>* unit_neighbors,
    const std::vector<size_t>* fixed_assignment) {
  ROD_RETURN_IF_ERROR(system.Validate());
  const size_t m = op_coeffs.rows();
  const size_t dims = op_coeffs.cols();
  const size_t n = system.num_nodes();
  if (m == 0) return Status::InvalidArgument("no units to place");
  if (fixed_assignment != nullptr && fixed_assignment->size() != m) {
    return Status::InvalidArgument("fixed_assignment size mismatch");
  }
  if (total_coeffs.size() != dims) {
    return Status::InvalidArgument("total_coeffs size mismatch");
  }
  for (size_t k = 0; k < dims; ++k) {
    if (total_coeffs[k] <= 0.0) {
      return Status::InvalidArgument(
          "rate variable " + std::to_string(k) +
          " has non-positive total load coefficient");
    }
  }
  if (!normalized_lower_bound.empty() &&
      normalized_lower_bound.size() != dims) {
    return Status::InvalidArgument("lower bound dimension mismatch");
  }
  if (options.tie_break == RodOptions::ClassITieBreak::kMinCrossArcs &&
      unit_neighbors == nullptr) {
    return Status::InvalidArgument(
        "kMinCrossArcs tie-break requires the dataflow neighbor lists");
  }

  const double total_capacity = system.TotalCapacity();
  Vector cap_share(n);
  for (size_t i = 0; i < n; ++i) {
    cap_share[i] = system.capacities[i] / total_capacity;
  }

  // --- Phase 1: operator ordering by ||l^o_j||_2 (Figure 10). Pinned
  // units (incremental mode) are excluded from the order entirely. ---
  std::vector<size_t> order;
  order.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    if (fixed_assignment == nullptr || (*fixed_assignment)[j] >= n) {
      order.push_back(j);
    }
  }
  if (options.sort_operators) {
    std::vector<double> norms(m);
    for (size_t j = 0; j < m; ++j) norms[j] = Norm2(op_coeffs.Row(j));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return options.sort_ascending ? norms[a] < norms[b]
                                    : norms[a] > norms[b];
    });
  }

  // --- Phase 2: greedy assignment. ---
  Rng rng(options.seed);
  Matrix node_coeffs(n, dims);
  std::vector<size_t> assignment(m, 0);
  std::vector<bool> assigned(m, false);
  if (fixed_assignment != nullptr) {
    // Seed the node coefficients with the immovable units' load.
    for (size_t j = 0; j < m; ++j) {
      const size_t node = (*fixed_assignment)[j];
      if (node >= n) continue;
      assignment[j] = node;
      assigned[j] = true;
      for (size_t k = 0; k < dims; ++k) {
        node_coeffs(node, k) += op_coeffs(j, k);
      }
    }
  }
  Vector w(dims);  // scratch candidate weight row

  const bool has_lb = !normalized_lower_bound.empty();
  std::vector<Candidate> cand(n);
  std::vector<size_t> class_one_nodes;
  std::vector<size_t> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  for (size_t j : order) {
    for (size_t i = 0; i < n; ++i) {
      bool class_one = true;
      double max_weight = 0.0;
      for (size_t k = 0; k < dims; ++k) {
        w[k] = (node_coeffs(i, k) + op_coeffs(j, k)) / total_coeffs[k] /
               cap_share[i];
        max_weight = std::max(max_weight, w[k]);
        if (w[k] > 1.0 + kClassITolerance) class_one = false;
      }
      const double pd =
          has_lb ? geom::PlaneDistanceFrom(w, normalized_lower_bound)
                 : geom::PlaneDistance(w);
      cand[i] = Candidate{class_one, pd, max_weight};
    }
    class_one_nodes.clear();
    for (size_t i = 0; i < n; ++i) {
      if (cand[i].class_one) class_one_nodes.push_back(i);
    }

    // Node selection.
    size_t selected = 0;
    auto argmax_pd = [&](const std::vector<size_t>& nodes) {
      assert(!nodes.empty());
      size_t best = nodes[0];
      for (size_t i : nodes) {
        if (cand[i].plane_distance > cand[best].plane_distance) best = i;
      }
      return best;
    };

    switch (options.mode) {
      case RodOptions::Mode::kMmpdOnly:
        selected = argmax_pd(all_nodes);
        break;
      case RodOptions::Mode::kMmadOnly: {
        // Pure axis balancing: minimize the worst per-axis weight, i.e.
        // keep every axis intercept 1/w_ik as large as possible.
        selected = 0;
        for (size_t i = 1; i < n; ++i) {
          if (cand[i].max_weight < cand[selected].max_weight) selected = i;
        }
        break;
      }
      case RodOptions::Mode::kCombined: {
        if (!class_one_nodes.empty()) {
          switch (options.tie_break) {
            case RodOptions::ClassITieBreak::kMaxPlaneDistance:
              selected = argmax_pd(class_one_nodes);
              break;
            case RodOptions::ClassITieBreak::kRandom:
              selected = class_one_nodes[rng.NextIndex(class_one_nodes.size())];
              break;
            case RodOptions::ClassITieBreak::kFirst:
              selected = class_one_nodes[0];
              break;
            case RodOptions::ClassITieBreak::kMinMaxWeight:
              selected = class_one_nodes[0];
              for (size_t i : class_one_nodes) {
                if (cand[i].max_weight < cand[selected].max_weight) {
                  selected = i;
                }
              }
              break;
            case RodOptions::ClassITieBreak::kMinCrossArcs: {
              // Count already-placed dataflow neighbors of j per node; the
              // node with the most co-located neighbors creates the fewest
              // new inter-node arcs. Ties fall back to plane distance.
              std::vector<size_t> colocated(n, 0);
              for (size_t nb : (*unit_neighbors)[j]) {
                if (nb < m && assigned[nb]) ++colocated[assignment[nb]];
              }
              selected = class_one_nodes[0];
              for (size_t i : class_one_nodes) {
                if (colocated[i] > colocated[selected] ||
                    (colocated[i] == colocated[selected] &&
                     cand[i].plane_distance > cand[selected].plane_distance)) {
                  selected = i;
                }
              }
              break;
            }
          }
        } else {
          // Class II step: MMPD — maximize the candidate plane distance.
          selected = argmax_pd(all_nodes);
        }
        break;
      }
    }

    assignment[j] = selected;
    assigned[j] = true;
    for (size_t k = 0; k < dims; ++k) {
      node_coeffs(selected, k) += op_coeffs(j, k);
    }
  }

  return Placement(n, std::move(assignment));
}

Result<Placement> RodPlace(const query::LoadModel& model,
                           const SystemSpec& system, const RodOptions& options,
                           const query::QueryGraph* graph) {
  // Map the physical lower bound (over system inputs) into normalized
  // coordinates; auxiliary variables get bound 0.
  Vector norm_lb;
  if (!options.lower_bound.empty()) {
    if (options.lower_bound.size() != model.num_system_inputs()) {
      return Status::InvalidArgument(
          "lower bound must cover exactly the system input streams");
    }
    for (double b : options.lower_bound) {
      if (b < 0.0) {
        return Status::InvalidArgument("lower bound must be non-negative");
      }
    }
    norm_lb.assign(model.num_vars(), 0.0);
    const double total_capacity = system.TotalCapacity();
    for (size_t k = 0; k < model.num_system_inputs(); ++k) {
      norm_lb[k] =
          model.total_coeffs()[k] * options.lower_bound[k] / total_capacity;
    }
  }

  std::vector<std::vector<size_t>> neighbors;
  const std::vector<std::vector<size_t>>* neighbors_ptr = nullptr;
  if (options.tie_break == RodOptions::ClassITieBreak::kMinCrossArcs) {
    if (graph == nullptr) {
      return Status::InvalidArgument(
          "kMinCrossArcs tie-break requires the query graph");
    }
    neighbors.resize(graph->num_operators());
    for (query::OperatorId j = 0; j < graph->num_operators(); ++j) {
      for (const query::Arc& arc : graph->inputs_of(j)) {
        if (arc.from.kind == query::StreamRef::Kind::kOperator) {
          neighbors[j].push_back(arc.from.index);
          neighbors[arc.from.index].push_back(j);
        }
      }
    }
    neighbors_ptr = &neighbors;
  }

  return RodPlaceMatrix(model.op_coeffs(), model.total_coeffs(), system,
                        options, norm_lb, neighbors_ptr);
}

}  // namespace rod::place
