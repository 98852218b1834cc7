#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dpmerge/support/bitvector.h"
#include "dpmerge/support/sign.h"

namespace dpmerge::dfg {

/// Widest signal, in bits, a design may declare or infer. The `.dp` frontend
/// and the `.dfg` reader reject anything wider (and any shift amount past
/// it) with a located diagnostic, so width arithmetic never overflows `int`
/// and no allocation is sized by an unchecked user number. Far above any
/// datapath the paper's flows target.
inline constexpr int kMaxWidth = 1024;

/// Kinds of DFG nodes. The paper (Section 2.1) restricts the discussion to
/// +, -, x and unary minus "for the sake of clarity" but notes the analyses
/// apply to shifters and comparators too; this implementation includes both:
/// `Shl` (shift left by a constant — fully mergeable, its addends are just
/// column-shifted CSA rows) and the comparators `LtS`/`LtU`/`Eq` (1-bit
/// results, natural cluster boundaries). `Extension` nodes are the explicit
/// truncate-or-extend operators introduced by the information-content width
/// pruning transformation (Definition 5.5). `Const` nodes let designs express
/// constant multiples (Observation 5.9) directly.
enum class OpKind : unsigned char {
  Input,
  Output,
  Const,
  Add,
  Sub,
  Mul,
  Neg,        // unary minus
  Shl,        // shift left by the node's constant `shift` attribute
  LtS,        // signed less-than, 1-bit result (width still w(N), zero-padded)
  LtU,        // unsigned less-than
  Eq,         // equality
  Extension,  // explicit width adaptation (Definition 5.5)
};

inline constexpr int kOpKindCount = 12;

/// What an operator kind is for the passes that dispatch on it: a graph
/// terminal (Input/Output/Const), a mergeable arithmetic operator, a 1-bit
/// comparator, or the Definition 5.5 width adaptation.
enum class OpClass : unsigned char { Terminal, Arith, Comparator, Resize };

/// Every fact about one operator kind. `kOps` holds one row per `OpKind`
/// in enum order, and nothing else in the code maps a kind to a name, a
/// `.dfg` keyword or an operand count; adding a kind means one row here and
/// one case in `apply_op` (eval.h).
struct OpInfo {
  OpKind kind;
  std::string_view name;     ///< display name (`to_string`, dot, reports)
  std::string_view keyword;  ///< `.dfg` text keyword (io.h)
  std::uint8_t operands;     ///< number of input ports
  OpClass cls;
  bool commutative;          ///< the two operands may be swapped
};

inline constexpr std::array<OpInfo, kOpKindCount> kOps = {{
    {OpKind::Input, "input", "input", 0, OpClass::Terminal, false},
    {OpKind::Output, "output", "output", 1, OpClass::Terminal, false},
    {OpKind::Const, "const", "const", 0, OpClass::Terminal, false},
    {OpKind::Add, "+", "add", 2, OpClass::Arith, true},
    {OpKind::Sub, "-", "sub", 2, OpClass::Arith, false},
    {OpKind::Mul, "*", "mul", 2, OpClass::Arith, true},
    {OpKind::Neg, "neg", "neg", 1, OpClass::Arith, false},
    {OpKind::Shl, "shl", "shl", 1, OpClass::Arith, false},
    {OpKind::LtS, "lts", "lts", 2, OpClass::Comparator, false},
    {OpKind::LtU, "ltu", "ltu", 2, OpClass::Comparator, false},
    {OpKind::Eq, "eq", "eq", 2, OpClass::Comparator, true},
    {OpKind::Extension, "ext", "ext", 1, OpClass::Resize, false},
}};

constexpr bool op_table_follows_enum() {
  for (int i = 0; i < kOpKindCount; ++i) {
    if (static_cast<int>(kOps[static_cast<std::size_t>(i)].kind) != i) {
      return false;
    }
  }
  return static_cast<int>(OpKind::Extension) + 1 == kOpKindCount;
}
static_assert(op_table_follows_enum(), "kOps must list OpKind in enum order");

/// What `op_info` returns for a kind outside the enum: a nameless terminal
/// ("?", no operands), so every accessor stays total.
inline constexpr OpInfo kUnknownOp{OpKind::Input, "?", "?", 0,
                                   OpClass::Terminal, false};

constexpr const OpInfo& op_info(OpKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kOps.size() ? kOps[i] : kUnknownOp;
}

/// Everything except Input/Output/Const.
constexpr bool is_operator(OpKind k) {
  return op_info(k).cls != OpClass::Terminal;
}
/// Add/Sub/Mul/Neg/Shl: the mergeable operators.
constexpr bool is_arith_operator(OpKind k) {
  return op_info(k).cls == OpClass::Arith;
}
/// LtS/LtU/Eq.
constexpr bool is_comparator(OpKind k) {
  return op_info(k).cls == OpClass::Comparator;
}
/// Expected number of input ports.
constexpr int operand_count(OpKind k) { return op_info(k).operands; }
/// Add/Mul/Eq: CSE may order their operands canonically.
constexpr bool is_commutative(OpKind k) { return op_info(k).commutative; }
constexpr std::string_view to_string(OpKind k) { return op_info(k).name; }

struct NodeId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const NodeId&) const = default;
};

struct EdgeId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const EdgeId&) const = default;
};

/// A DFG node. `width` is w(N): for inputs/outputs the signal bitwidth, for
/// operator nodes the number of bits used to represent operands and result
/// (Section 2.1). `ext_sign` is meaningful for `Extension` nodes (t(N) of
/// Definition 5.5) and for `Input` nodes, where it declares how the
/// environment interprets the input value (used only as documentation and by
/// workload generators; the analyses derive signedness from edges).
///
/// Names are interned in the owning Graph (`Graph::name(id)`); a node only
/// pays a 4-byte pool index, so megagraphs with mostly-anonymous interior
/// nodes carry no per-node string.
struct Node {
  NodeId id;
  OpKind kind = OpKind::Add;
  int width = 0;
  int shift = 0;  ///< Shift amount; only for OpKind::Shl.
  Sign ext_sign = Sign::Unsigned;
  std::int32_t name_id = -1;  ///< Interned name pool index; -1 = unnamed.
  BitVector value;    ///< Constant value; only for OpKind::Const.
  std::vector<EdgeId> in;   ///< Ordered by destination port index.
  std::vector<EdgeId> out;  ///< Unordered fanout list.
};

/// A DFG edge with its width w(e) and signedness t(e) (Section 2.1). The
/// value carried and the operand delivered follow Section 2.2:
///   carried(e)  = resize(result(src), w(e), t(e))
///   operand     = resize(carried(e), w(dst), t(e))   [for arith operators]
struct Edge {
  EdgeId id;
  NodeId src;
  NodeId dst;
  int dst_port = 0;  ///< Operand index at the destination node.
  int width = 0;     ///< w(e)
  Sign sign = Sign::Unsigned;  ///< t(e)
};

/// Frozen compressed-sparse-row view of a Graph's *structure*: flat fanin /
/// fanout edge-id arrays plus the topological order every hot pass needs.
/// Built once by `Graph::freeze()` and cached until the next structural
/// mutation; width / sign / shift updates do NOT invalidate it (read those
/// through the Graph).
///
/// The point is cache behaviour at 100k+-node scale: a sweep touches two
/// flat int32 arrays instead of chasing a per-node `std::vector<EdgeId>`
/// allocation (DESIGN.md §11).
struct Csr {
  int num_nodes = 0;
  int num_edges = 0;

  /// Fanout: out-edge ids of node v are out_edges[out_begin[v]..out_begin[v+1]).
  std::vector<std::int32_t> out_begin;
  std::vector<std::int32_t> out_edges;
  /// Fanin: in-edge ids of node v in destination-port order (invalid /
  /// unconnected ports are skipped).
  std::vector<std::int32_t> in_begin;
  std::vector<std::int32_t> in_edges;

  /// Kahn-LIFO topological order: the graph's one topological order
  /// (cluster numbering and netlist emission depend on it; tests/dfg_oracle.h
  /// holds the reference sort). A cycle leaves its nodes, and everything
  /// downstream of it, out, so `topo.size() < num_nodes` flags one.
  std::vector<NodeId> topo;

  std::span<const std::int32_t> out(NodeId v) const {
    return {out_edges.data() + out_begin[static_cast<std::size_t>(v.value)],
            out_edges.data() +
                out_begin[static_cast<std::size_t>(v.value) + 1]};
  }
  std::span<const std::int32_t> in(NodeId v) const {
    return {in_edges.data() + in_begin[static_cast<std::size_t>(v.value)],
            in_edges.data() + in_begin[static_cast<std::size_t>(v.value) + 1]};
  }
};

/// A data flow graph of datapath operators: directed, acyclic, connected
/// (Section 2.1). Nodes and edges are stored in stable index vectors; ids are
/// never reused. The only structural mutations the paper's transformations
/// need are width/sign updates, extension-node insertion and edge rewiring,
/// all provided here; removal is not supported (and not needed).
///
/// Thread-safety: const accessors are safe to call concurrently EXCEPT
/// `freeze()` and `validate()` (the first call after a structural mutation
/// builds the cache).
/// Parallel passes freeze once up front, then share the Csr read-only.
class Graph {
 public:
  NodeId add_node(OpKind kind, int width, std::string name = {});
  NodeId add_const(const BitVector& value, std::string name = {});

  /// Adds an edge src -> (dst, dst_port) with width/sign attributes.
  /// `width == 0` is shorthand for "the source node's width".
  EdgeId add_edge(NodeId src, NodeId dst, int dst_port, int width = 0,
                  Sign sign = Sign::Unsigned);

  /// Pre-sizes the node/edge stores; generators building megagraphs call
  /// this so construction is two big allocations instead of log(n) regrows.
  void reserve(int nodes, int edges);

  const Node& node(NodeId id) const {
    return nodes_[static_cast<std::size_t>(id.value)];
  }
  const Edge& edge(EdgeId id) const {
    return edges_[static_cast<std::size_t>(id.value)];
  }

  /// The node's interned name; returns the empty string for unnamed nodes.
  const std::string& name(NodeId id) const {
    const std::int32_t nid = node(id).name_id;
    return nid < 0 ? empty_name() : names_[static_cast<std::size_t>(nid)];
  }
  const std::string& name(const Node& n) const {
    return n.name_id < 0 ? empty_name()
                         : names_[static_cast<std::size_t>(n.name_id)];
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int edge_count() const { return static_cast<int>(edges_.size()); }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  // ---- mutation (used by the width-pruning transformations) ----
  void set_node_width(NodeId id, int width);
  void set_node_ext_sign(NodeId id, Sign s);
  void set_node_shift(NodeId id, int shift);
  void set_edge_width(EdgeId id, int width);
  void set_edge_sign(EdgeId id, Sign s);

  /// Lemma 5.6 rewiring: inserts a new Extension node E after `n`, moving all
  /// out-edges of `n` so they originate at E, and connecting n -> E with an
  /// edge of width `edge_width` (signedness immaterial per the lemma; we use
  /// `ext_sign`). Returns E's id.
  NodeId insert_extension_after(NodeId n, int ext_width, Sign ext_sign,
                                int edge_width);

  /// Like `insert_extension_after`, but moves only the listed out-edges of
  /// `n` to the new Extension node (used when only some consumers need the
  /// materialised wide value). The n -> E edge gets n's current width.
  NodeId insert_extension_retarget(NodeId n, int ext_width, Sign ext_sign,
                                   const std::vector<EdgeId>& edges);

  // ---- queries ----
  std::vector<NodeId> inputs() const;
  std::vector<NodeId> outputs() const;

  /// Frozen CSR view of the current structure (see `Csr`). Cached; rebuilt
  /// lazily after the next `add_node`/`add_edge`/`insert_extension_*`.
  /// Width/sign/shift setters do not invalidate it.
  const Csr& freeze() const;

  /// Bumped on every structural mutation; the Csr cache keys off it.
  std::uint64_t structure_version() const { return version_; }

  /// Checks structural invariants; returns a human-readable list of
  /// violations (empty == valid): acyclicity (from `freeze().topo`), port
  /// arity/ordering, one in-edge per input port, outputs have no fanout,
  /// positive widths.
  std::vector<std::string> validate() const;

  /// Graphviz dot rendering with widths, signs and (optionally) per-node
  /// annotations, for debugging and the figure benches.
  std::string to_dot(
      const std::vector<std::string>& node_annotations = {}) const;

 private:
  static const std::string& empty_name();
  std::int32_t intern_name(std::string name);

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::string> names_;  ///< Interned name pool (see Node::name_id).
  std::unordered_map<std::string, std::int32_t> name_ids_;

  std::uint64_t version_ = 0;  ///< Structural mutation counter.
  mutable Csr csr_;
  mutable std::uint64_t csr_version_ = ~std::uint64_t{0};
};

}  // namespace dpmerge::dfg
