#include "cluster/wire.h"

namespace rod::cluster {

namespace {

// The query graph's wire form: the input-stream names, then per operator
// its spec and its input arcs.
struct ArcWire {
  uint8_t from_op = 0;  ///< 0: an input stream; otherwise an operator.
  uint32_t index = 0;
  double comm_cost = 0.0;

  template <class Io>
  void Fields(Io& io) {
    io(from_op, index, comm_cost);
  }
};

struct OperatorWire {
  std::string name;
  uint8_t kind = 0;
  double cost = 0.0;
  double selectivity = 0.0;
  double window = 0.0;
  bool variable_selectivity = false;
  double qos_weight = 0.0;
  std::vector<ArcWire> arcs;

  template <class Io>
  void Fields(Io& io) {
    io(name, kind, cost, selectivity, window, variable_selectivity,
       qos_weight, arcs);
  }
};

struct GraphWire {
  std::vector<std::string> inputs;
  std::vector<OperatorWire> ops;

  template <class Io>
  void Fields(Io& io) {
    io(inputs, ops);
  }
};

}  // namespace

void WireWriter::Put(const query::QueryGraph& graph) {
  EncodeQueryGraph(graph, *this);
}

uint32_t WireReader::Count(size_t min_element_bytes) {
  uint32_t n = 0;
  Read(n);
  if (ok() &&
      (n > kMaxWireCount || n > (in_.size() - pos_) / min_element_bytes)) {
    Fail("count " + std::to_string(n) + " exceeds the cap or the " +
         std::to_string(in_.size() - pos_) + " bytes left");
  }
  return ok() ? n : 0;
}

void WireReader::Read(std::string& s) {
  const uint32_t len = Count(1);
  s.assign(in_.substr(pos_, len));
  pos_ += len;
}

void WireReader::Read(query::QueryGraph& graph) {
  auto decoded = DecodeQueryGraph(*this);
  if (decoded.ok()) {
    graph = std::move(decoded.value());
  } else if (ok()) {
    status_ = decoded.status();
  }
}

uint64_t WireReader::ReadLe(size_t bytes) {
  if (!ok() || bytes > in_.size() - pos_) {
    Fail("payload truncated");
    return 0;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in_[pos_ + i]))
         << (8 * i);
  }
  pos_ += bytes;
  return v;
}

void WireReader::Fail(std::string message) {
  if (ok()) status_ = Status::InvalidArgument(std::move(message));
}

Status WireReader::Finish() const {
  if (!ok()) return status_;
  if (pos_ != in_.size()) {
    return Status::InvalidArgument("trailing bytes after payload");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

void EncodeQueryGraph(const query::QueryGraph& graph, WireWriter& w) {
  GraphWire g;
  for (size_t k = 0; k < graph.num_input_streams(); ++k) {
    g.inputs.push_back(graph.input_name(k));
  }
  for (size_t j = 0; j < graph.num_operators(); ++j) {
    const query::OperatorSpec& spec = graph.spec(j);
    OperatorWire& op = g.ops.emplace_back();
    op.name = spec.name;
    op.kind = static_cast<uint8_t>(spec.kind);
    op.cost = spec.cost;
    op.selectivity = spec.selectivity;
    op.window = spec.window;
    op.variable_selectivity = spec.variable_selectivity;
    op.qos_weight = spec.qos_weight;
    for (const query::Arc& arc : graph.inputs_of(j)) {
      op.arcs.push_back(
          {static_cast<uint8_t>(
               arc.from.kind == query::StreamRef::Kind::kInput ? 0 : 1),
           static_cast<uint32_t>(arc.from.index), arc.comm_cost});
    }
  }
  w(g);
}

Result<query::QueryGraph> DecodeQueryGraph(WireReader& r) {
  GraphWire g;
  r(g);
  if (!r.ok()) return r.status();
  query::QueryGraph graph;
  for (std::string& name : g.inputs) graph.AddInputStream(std::move(name));
  for (OperatorWire& op : g.ops) {
    if (op.kind > static_cast<uint8_t>(query::OperatorKind::kJoin)) {
      return Status::InvalidArgument("graph: unknown operator kind");
    }
    query::OperatorSpec spec;
    spec.name = std::move(op.name);
    spec.kind = static_cast<query::OperatorKind>(op.kind);
    spec.cost = op.cost;
    spec.selectivity = op.selectivity;
    spec.window = op.window;
    spec.variable_selectivity = op.variable_selectivity;
    spec.qos_weight = op.qos_weight;
    std::vector<query::StreamRef> inputs;
    std::vector<double> comm_costs;
    for (const ArcWire& arc : op.arcs) {
      inputs.push_back(arc.from_op == 0 ? query::StreamRef::Input(arc.index)
                                        : query::StreamRef::Op(arc.index));
      comm_costs.push_back(arc.comm_cost);
    }
    // A graph the query layer rejects is a malformed payload.
    auto added = graph.AddOperator(spec, inputs, comm_costs);
    if (!added.ok()) {
      return Status::InvalidArgument("graph: " + added.status().message());
    }
  }
  return graph;
}

Status PlanMsg::Validate() const {
  if (assignment.size() != graph.num_operators()) {
    return Status::InvalidArgument("plan: assignment size != operators");
  }
  if (source_owner.size() != graph.num_input_streams()) {
    return Status::InvalidArgument("plan: source owners != input streams");
  }
  return Status::OK();
}

}  // namespace rod::cluster
