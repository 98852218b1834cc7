#include "dpmerge/check/absint_engine.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <string>

#include "dpmerge/check/absint_transfer.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::check {

namespace {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

using namespace absdom;  // NOLINT(google-build-using-namespace)

// ---------------------------------------------- congruence transfers --

std::uint64_t mask64(int k) {
  return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

/// Canonical form: modulus clamped to min(64, width) — a value of width w is
/// its own residue mod 2^w, so wider moduli carry no extra information.
Congruence cong_make(int k, std::uint64_t r, int w) {
  k = std::min({k, w, 64});
  if (k <= 0) return Congruence::top();
  return Congruence{k, r & mask64(k)};
}

Congruence cong_const(const BitVector& v) {
  return cong_make(64, v.to_uint64(), v.width());
}

Congruence cong_add(const Congruence& a, const Congruence& b, int w) {
  const int k = std::min(a.modulus_bits, b.modulus_bits);
  return cong_make(k, a.residue + b.residue, w);
}

Congruence cong_sub(const Congruence& a, const Congruence& b, int w) {
  const int k = std::min(a.modulus_bits, b.modulus_bits);
  return cong_make(k, a.residue - b.residue, w);
}

Congruence cong_neg(const Congruence& a, int w) {
  return cong_make(a.modulus_bits, std::uint64_t{0} - a.residue, w);
}

/// Multiplication is where congruence beats known-bits: mod 2^k is a ring
/// homomorphism, so residues multiply — (2a+1)(2b+1) ≡ 1 (mod 2) — and
/// trailing zeros of the two factors add.
Congruence cong_mul(const Congruence& a, const Congruence& b, int w) {
  const Congruence zeros =
      cong_make(a.trailing_zeros() + b.trailing_zeros(), 0, w);
  const Congruence ring =
      cong_make(std::min(a.modulus_bits, b.modulus_bits),
                a.residue * b.residue, w);
  return ring.modulus_bits >= zeros.modulus_bits ? ring : zeros;
}

Congruence cong_shl(const Congruence& a, int s, int w) {
  if (s < 0) return Congruence::top();
  if (a.is_top()) return cong_make(s, 0, w);  // low s bits are zero anyway
  const int k = std::min(a.modulus_bits + s, 64 + s);  // avoid int overflow
  const auto r = static_cast<std::uint64_t>(
      s >= 64 ? u128{0} : static_cast<u128>(a.residue) << s);
  return cong_make(k, r, w);
}

/// Truncation and extension both preserve the low bits, so a congruence
/// survives any resize clamped to the destination width.
Congruence cong_resize(const Congruence& a, int to_w) {
  return cong_make(a.modulus_bits, a.residue, to_w);
}

// ------------------------------------------------- reduced product --

/// One round of mutual refinement between the three forward domains. Every
/// step only adds information, so the product fact is never weaker than what
/// the single-domain transfers produced on their own.
void reduce(AbsFact& f) {
  const int w = f.width();
  // interval → known bits: hi < 2^m pins bits [m, w) to zero.
  if (f.range.valid && fits_u128(w)) {
    int m = 0;
    while (m < w && f.range.hi >= pow2(m)) ++m;
    for (int i = m; i < w; ++i) {
      if (!f.bits.known.bit(i)) set_tri(f.bits, i, Tri::F);
    }
  }
  // congruence → known bits: the residue pins the low modulus_bits bits
  // (conflicts are left alone; the lint's self-check reports disjointness).
  for (int i = 0; i < f.cong.modulus_bits && i < w; ++i) {
    if (!f.bits.known.bit(i)) {
      set_tri(f.bits, i, (f.cong.residue >> i) & 1 ? Tri::T : Tri::F);
    }
  }
  // known bits → congruence: a run of known low bits is a congruence.
  int run = 0;
  while (run < w && run < 64 && f.bits.known.bit(run)) ++run;
  if (run > f.cong.modulus_bits) {
    std::uint64_t r = 0;
    for (int i = 0; i < run; ++i) {
      r |= static_cast<std::uint64_t>(f.bits.value.bit(i) ? 1 : 0) << i;
    }
    f.cong = cong_make(run, r, w);
  }
  // known bits → interval: unknowns-to-0 / unknowns-to-1 bound the value.
  if (fits_u128(w)) {
    u128 lb = 0;
    u128 ub = 0;
    for (int i = w - 1; i >= 0; --i) {
      const Tri t = tri_of(f.bits, i);
      lb = (lb << 1) | static_cast<u128>(t == Tri::T ? 1 : 0);
      ub = (ub << 1) | static_cast<u128>(t == Tri::F ? 0 : 1);
    }
    if (!f.range.valid) {
      f.range = Interval{true, lb, ub};
    } else {
      const u128 lo = std::max(f.range.lo, lb);
      const u128 hi = std::min(f.range.hi, ub);
      if (lo <= hi) f.range = Interval{true, lo, hi};
    }
  }
}

AbsFact abs_resize(const AbsFact& f, int to_w, Sign sign) {
  AbsFact r{kb_resize(f.bits, to_w, sign),
            itv_resize(f.range, f.width(), to_w, sign),
            cong_resize(f.cong, to_w)};
  reduce(r);
  return r;
}

// ------------------------------------------------- demand helpers --

int demand_msb1(const BitVector& d) {
  for (int i = d.width() - 1; i >= 0; --i) {
    if (d.bit(i)) return i + 1;
  }
  return 0;
}

BitVector low_mask(int w, int k) {
  BitVector m(w);
  for (int i = 0; i < std::min(w, k); ++i) m.set_bit(i, true);
  return m;
}

bool or_into(BitVector& acc, const BitVector& d) {
  bool changed = false;
  for (int i = 0; i < acc.width(); ++i) {
    if (d.bit(i) && !acc.bit(i)) {
      acc.set_bit(i, true);
      changed = true;
    }
  }
  return changed;
}

/// Demand on the *input* of resize(from_w -> to_w, sign), given demand `d`
/// on the output. Truncation direction: bits above to_w never reach the
/// output. Extension direction: the replicated bits all read the sign bit
/// (signed) or the constant 0 (unsigned).
BitVector demand_unresize(const BitVector& d, int from_w, Sign sign) {
  const int to_w = d.width();
  BitVector r(from_w);
  for (int i = 0; i < std::min(from_w, to_w); ++i) r.set_bit(i, d.bit(i));
  if (to_w > from_w && sign == Sign::Signed && from_w > 0) {
    for (int i = from_w; i < to_w; ++i) {
      if (d.bit(i)) {
        r.set_bit(from_w - 1, true);
        break;
      }
    }
  }
  return r;
}

/// Trailing zeros of the operand delivered by `other` into Mul node `n`,
/// provable from a literal Const source alone. Structural: the constant does
/// not move when other widths shrink.
int const_operand_trailing_zeros(const Graph& g, const Node& n,
                                 EdgeId other) {
  const Edge& e = g.edge(other);
  const Node& src = g.node(e.src);
  if (src.kind != OpKind::Const) return 0;
  const BitVector v = dfg::deliver(src.value, e, n);
  if (v.is_zero()) return n.width;  // ×0: nothing upstream is demanded
  int tz = 0;
  while (!v.bit(tz)) ++tz;
  return tz;
}

// --------------------------------------------------- fact equality --

bool kb_eq(const KnownBits& a, const KnownBits& b) {
  return a.known == b.known && a.value == b.value;
}

bool itv_eq(const Interval& a, const Interval& b) {
  if (a.valid != b.valid) return false;
  return !a.valid || (a.lo == b.lo && a.hi == b.hi);
}

bool fact_eq(const AbsFact& a, const AbsFact& b) {
  return kb_eq(a.bits, b.bits) && itv_eq(a.range, b.range) && a.cong == b.cong;
}

// ------------------------------------------------------ the engine --

struct Engine {
  const Graph& g;
  const dfg::Csr& c;
  AbsintResult& r;

  const AbsFact& operand(EdgeId eid) const {
    return r.at_operand[static_cast<std::size_t>(eid.value)];
  }

  /// Recomputes the forward fact of one node from its predecessors' output
  /// facts; returns true iff the node's output fact changed.
  bool visit_forward(NodeId id) {
    const Node& n = g.node(id);
    for (EdgeId eid : n.in) {
      const Edge& e = g.edge(eid);
      const AbsFact carried = abs_resize(r.out(e.src), e.width, e.sign);
      r.at_edge[static_cast<std::size_t>(eid.value)] = carried;
      r.at_operand[static_cast<std::size_t>(eid.value)] =
          abs_resize(carried, n.width, dfg::delivery_sign(e, n));
    }

    AbsFact out = AbsFact::top(n.width);
    switch (n.kind) {
      case OpKind::Input:
        break;
      case OpKind::Const:
        out = AbsFact::constant(n.value);
        break;
      case OpKind::Output:
      case OpKind::Extension:
        out = operand(n.in[0]);
        break;
      case OpKind::Add: {
        const AbsFact& a = operand(n.in[0]);
        const AbsFact& b = operand(n.in[1]);
        out = {kb_add(a.bits, b.bits, Tri::F, /*invert_b=*/false),
               itv_add(a.range, b.range, n.width),
               cong_add(a.cong, b.cong, n.width)};
        break;
      }
      case OpKind::Sub: {
        const AbsFact& a = operand(n.in[0]);
        const AbsFact& b = operand(n.in[1]);
        out = {kb_add(a.bits, b.bits, Tri::T, /*invert_b=*/true),
               itv_sub(a.range, b.range, n.width),
               cong_sub(a.cong, b.cong, n.width)};
        break;
      }
      case OpKind::Mul: {
        const AbsFact& a = operand(n.in[0]);
        const AbsFact& b = operand(n.in[1]);
        out = {kb_mul(a.bits, b.bits), itv_mul(a.range, b.range, n.width),
               cong_mul(a.cong, b.cong, n.width)};
        break;
      }
      case OpKind::Neg: {
        const AbsFact& a = operand(n.in[0]);
        out = {kb_add(KnownBits::constant(BitVector(n.width)), a.bits, Tri::T,
                      /*invert_b=*/true),
               itv_neg(a.range, n.width), cong_neg(a.cong, n.width)};
        break;
      }
      case OpKind::Shl: {
        const AbsFact& a = operand(n.in[0]);
        out = {kb_shl(a.bits, n.shift), itv_shl(a.range, n.shift, n.width),
               cong_shl(a.cong, n.shift, n.width)};
        break;
      }
      case OpKind::LtS:
      case OpKind::LtU:
      case OpKind::Eq: {
        const AbstractValue a = operand(n.in[0]).value();
        const AbstractValue b = operand(n.in[1]).value();
        const Tri t = n.kind == OpKind::LtS   ? decide_lts(a, b)
                      : n.kind == OpKind::LtU ? decide_ltu(a, b)
                                              : decide_eq(a, b);
        out.bits = kb_bool(n.width, t);
        out.range = fits_u128(n.width)
                        ? Interval{true, t == Tri::T ? 1u : 0u,
                                   t == Tri::F ? 0u : 1u}
                        : interval_top();
        out.cong = t == Tri::U
                       ? Congruence::top()
                       : cong_make(64, t == Tri::T ? 1 : 0, n.width);
        break;
      }
    }
    reduce(out);
    auto& slot = r.at_output_port[static_cast<std::size_t>(id.value)];
    if (fact_eq(slot, out)) return false;
    slot = out;
    return true;
  }

  /// Recomputes the demand fact of one node from its consumers' edge
  /// demands, then pushes demand onto its own operands; returns true iff
  /// any demand mask it owns changed.
  bool visit_backward(NodeId id) {
    const Node& n = g.node(id);
    bool changed = false;

    auto& dout = r.demanded_out[static_cast<std::size_t>(id.value)];
    if (n.kind == OpKind::Output) {
      changed |= or_into(dout, low_mask(n.width, n.width));
    } else {
      BitVector join(n.width);
      for (std::int32_t eid : c.out(id)) {
        const Edge& e = g.edge(EdgeId{eid});
        or_into(join, demand_unresize(r.demand_edge(EdgeId{eid}), n.width,
                                      e.sign));
      }
      if (!(join == dout)) {
        dout = join;
        changed = true;
      }
    }

    if (n.in.empty()) return changed;

    const int dw = demand_msb1(dout);

    for (std::size_t port = 0; port < n.in.size(); ++port) {
      const EdgeId eid = n.in[port];
      const Edge& e = g.edge(eid);
      BitVector dop(n.width);
      switch (n.kind) {
        case OpKind::Input:
        case OpKind::Const:
          break;  // no operands
        case OpKind::Output:
        case OpKind::Extension:
          dop = dout;
          break;
        case OpKind::Add:
        case OpKind::Sub:
        case OpKind::Neg:
          // Carries ripple strictly low-to-high: operand bits above the
          // highest demanded result bit cannot reach it.
          dop = low_mask(n.width, dw);
          break;
        case OpKind::Mul: {
          // Column j of the product reads operand bits [0, j]; a constant
          // co-factor with t trailing zeros shifts every column up by t.
          const int tz = const_operand_trailing_zeros(
              g, n, n.in[port == 0 ? 1 : 0]);
          dop = low_mask(n.width, std::max(dw - tz, 0));
          break;
        }
        case OpKind::Shl:
          dop = low_mask(n.width, 0);
          for (int i = 0; i + n.shift < n.width; ++i) {
            dop.set_bit(i, dout.bit(i + n.shift));
          }
          break;
        case OpKind::LtS:
        case OpKind::LtU:
        case OpKind::Eq:
          // Bits >= 1 of the result are structurally zero; only a demand on
          // bit 0 reaches the operands, and then every operand bit matters.
          dop = dw >= 1 && dout.bit(0) ? low_mask(n.width, n.width)
                                       : BitVector(n.width);
          break;
      }
      auto& op_slot = r.demanded_operand[static_cast<std::size_t>(eid.value)];
      if (!(dop == op_slot)) {
        op_slot = dop;
        changed = true;
      }
      const BitVector de =
          demand_unresize(dop, e.width, dfg::delivery_sign(e, n));
      auto& e_slot = r.demanded_edge[static_cast<std::size_t>(eid.value)];
      if (!(de == e_slot)) {
        e_slot = de;
        changed = true;
      }
    }
    return changed;
  }

  /// One directional worklist pass: nodes are drained in dependency order
  /// (topo-position priority); a change requeues the dependent side, which
  /// is always later in the drain order, so each pass reaches its
  /// directional fixpoint in a single drain on a DAG.
  bool forward_pass() {
    std::vector<char> dirty(static_cast<std::size_t>(c.num_nodes), 1);
    bool any = false;
    for (NodeId id : c.topo) {
      if (!dirty[static_cast<std::size_t>(id.value)]) continue;
      dirty[static_cast<std::size_t>(id.value)] = 0;
      if (visit_forward(id)) {
        any = true;
        for (std::int32_t eid : c.out(id)) {
          dirty[static_cast<std::size_t>(g.edge(EdgeId{eid}).dst.value)] = 1;
        }
      }
    }
    return any;
  }

  bool backward_pass() {
    std::vector<char> dirty(static_cast<std::size_t>(c.num_nodes), 1);
    bool any = false;
    for (auto it = c.topo.rbegin(); it != c.topo.rend(); ++it) {
      const NodeId id = *it;
      if (!dirty[static_cast<std::size_t>(id.value)]) continue;
      dirty[static_cast<std::size_t>(id.value)] = 0;
      if (visit_backward(id)) {
        any = true;
        for (EdgeId eid : g.node(id).in) {
          dirty[static_cast<std::size_t>(g.edge(eid).src.value)] = 1;
        }
      }
    }
    return any;
  }
};

std::string u128_to_string(u128 v) {
  if (v == 0) return "0";
  std::string s;
  while (v > 0) {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return s;
}

std::string kb_to_string(const KnownBits& kb) {
  std::string s;
  for (int i = kb.width() - 1; i >= 0; --i) {
    const Tri t = tri_of(kb, i);
    s += t == Tri::U ? 'x' : (t == Tri::T ? '1' : '0');
  }
  return s;
}

}  // namespace

// ------------------------------------------------------- public types --

int Congruence::trailing_zeros() const {
  if (is_top()) return 0;
  if (residue == 0) return modulus_bits;
  return std::min(modulus_bits, std::countr_zero(residue));
}

AbsFact AbsFact::top(int w) {
  return {KnownBits::top(w), interval_full(w), Congruence::top()};
}

AbsFact AbsFact::constant(const BitVector& v) {
  AbsFact f{KnownBits::constant(v), interval_top(), cong_const(v)};
  if (fits_u128(v.width())) f.range = interval_const(to_u128(v));
  return f;
}

bool contains(const AbsFact& f, const BitVector& v) {
  if (!contains(f.value(), v)) return false;
  const Congruence& cg = f.cong;
  if (!cg.is_top()) {
    const std::uint64_t low = v.to_uint64() & mask64(cg.modulus_bits);
    if (low != cg.residue) return false;
  }
  return true;
}

int AbsintResult::demanded_width(dfg::NodeId n) const {
  return demand_msb1(demand_out(n));
}

// ---------------------------------------------------------- fixpoint --

AbsintResult compute_absint(const Graph& g) {
  obs::Span span("check.absint2");
  obs::stat_add("check.absint2.runs");
  const dfg::Csr& c = g.freeze();
  AbsintResult r;
  const auto nn = static_cast<std::size_t>(g.node_count());
  const auto ne = static_cast<std::size_t>(g.edge_count());
  r.at_output_port.reserve(nn);
  for (const Node& n : g.nodes()) {
    r.at_output_port.push_back(AbsFact::top(n.width));
    r.demanded_out.emplace_back(n.width);
  }
  r.at_edge.reserve(ne);
  for (const Edge& e : g.edges()) {
    r.at_edge.push_back(AbsFact::top(e.width));
    r.at_operand.push_back(AbsFact::top(g.node(e.dst).width));
    r.demanded_edge.emplace_back(e.width);
    r.demanded_operand.emplace_back(g.node(e.dst).width);
  }

  // Forward/backward alternations; a DAG settles in <= 2.
  constexpr int kMaxRounds = 4;
  Engine engine{g, c, r};
  for (int round = 0; round < kMaxRounds; ++round) {
    const bool fwd = engine.forward_pass();
    const bool bwd = engine.backward_pass();
    r.rounds = round + 1;
    if (!fwd && !bwd) break;
  }
  return r;
}

// -------------------------------------------------------------- lint --

namespace {

void self_check(const Graph& g, const AbsintResult& r, CheckReport& rep) {
  for (const Node& n : g.nodes()) {
    const AbsFact& f = r.out(n.id);
    const Locus locus{"node", n.id.value, -1, g.name(n)};
    if (f.bits.all_known() && f.range.valid && fits_u128(f.width())) {
      const u128 v = to_u128(f.bits.value);
      if (v < f.range.lo || v > f.range.hi) {
        rep.add(Severity::Error, "absint.internal",
                "known-bits and interval domains are disjoint", locus);
      }
    }
    for (int i = 0; i < std::min(f.cong.modulus_bits, f.width()); ++i) {
      if (f.bits.known.bit(i) &&
          f.bits.value.bit(i) != (((f.cong.residue >> i) & 1) != 0)) {
        rep.add(Severity::Error, "absint.internal",
                "congruence residue and known bits are disjoint", locus);
        break;
      }
    }
  }
}

void lint_claim(const AbsFact& f, analysis::InfoContent cl, int port_width,
                Locus locus, const char* what, CheckReport& rep) {
  if (cl.width < 0 || cl.width > port_width) {
    rep.add(Severity::Error, "ic.malformed",
            std::string(what) + " claim " + cl.to_string() + " outside [0, " +
                std::to_string(port_width) + "]",
            std::move(locus));
    return;
  }
  if (contradicts(f.value(), cl)) {
    rep.add(Severity::Error, "ic.unsound",
            std::string(what) + " claim " + cl.to_string() +
                " is violated by every reachable value (fixpoint facts prove "
                "the claimed extension bits differ)",
            std::move(locus));
  }
}

/// rp.stale: required precision is a pure function of the graph, so the
/// stored result must equal a fresh derivation.
void lint_rp_fresh(const Graph& g, const analysis::RequiredPrecision& rp,
                   CheckReport& rep) {
  const auto nn = static_cast<std::size_t>(g.node_count());
  if (rp.at_output_port.size() != nn || rp.at_input_port.size() != nn) {
    rep.add(Severity::Error, "rp.stale",
            "required-precision vectors sized for " +
                std::to_string(rp.at_output_port.size()) +
                " nodes, graph has " + std::to_string(nn) +
                " (graph mutated after the analysis ran)");
    return;
  }
  const analysis::RequiredPrecision fresh =
      analysis::compute_required_precision(g);
  for (const Node& n : g.nodes()) {
    const auto i = static_cast<std::size_t>(n.id.value);
    if (rp.at_output_port[i] != fresh.at_output_port[i] ||
        rp.at_input_port[i] != fresh.at_input_port[i]) {
      rep.add(Severity::Error, "rp.stale",
              "stored r(out)=" + std::to_string(rp.at_output_port[i]) +
                  " r(in)=" + std::to_string(rp.at_input_port[i]) +
                  ", fresh derivation gives r(out)=" +
                  std::to_string(fresh.at_output_port[i]) + " r(in)=" +
                  std::to_string(fresh.at_input_port[i]),
              Locus{"node", n.id.value, -1, g.name(n)});
    }
  }
}

}  // namespace

CheckReport lint_absint(const Graph& g, const analysis::InfoAnalysis* ia,
                        const analysis::RequiredPrecision* rp,
                        const AbsintResult* pre) {
  obs::Span span("check.lint.absint");
  CheckReport rep;
  const auto nn = static_cast<std::size_t>(g.node_count());
  const auto ne = static_cast<std::size_t>(g.edge_count());

  AbsintResult local;
  if (!pre) local = compute_absint(g);
  const AbsintResult& r = pre ? *pre : local;
  self_check(g, r, rep);

  if (ia) {
    if (ia->at_output_port.size() != nn || ia->at_edge.size() != ne ||
        ia->at_operand.size() != ne) {
      rep.add(Severity::Error, "ic.stale",
              "info-content vectors sized for " +
                  std::to_string(ia->at_output_port.size()) + " nodes / " +
                  std::to_string(ia->at_edge.size()) + " edges, graph has " +
                  std::to_string(nn) + " / " + std::to_string(ne) +
                  " (graph mutated after the analysis ran)");
    } else {
      for (const Node& n : g.nodes()) {
        lint_claim(r.out(n.id), ia->out(n.id), n.width,
                   Locus{"node", n.id.value, -1, g.name(n)}, "output-port",
                   rep);
      }
      for (const Edge& e : g.edges()) {
        lint_claim(r.edge(e.id), ia->edge(e.id), e.width,
                   Locus{"edge", e.id.value, -1, {}}, "carried-edge", rep);
        lint_claim(r.operand(e.id), ia->operand(e.id), g.node(e.dst).width,
                   Locus{"edge", e.id.value, e.dst_port, {}}, "operand", rep);
      }
    }
  }

  if (rp) {
    lint_rp_fresh(g, *rp, rep);
    if (rp->at_output_port.size() == nn) {
      // The demanded-bits transfers are pointwise at least as precise as the
      // required-precision transfers (DESIGN.md §13 proves the inequality
      // case by case), so demand above r(p_o) means one of the two backward
      // analyses is unsound.
      for (const Node& n : g.nodes()) {
        const int dw = r.demanded_width(n.id);
        const int ro = rp->at_output_port[static_cast<std::size_t>(
            n.id.value)];
        if (dw > ro) {
          rep.add(Severity::Error, "rp.unsound",
                  "demanded-bits fixpoint needs " + std::to_string(dw) +
                      " low bits but required precision claims r(p_o)=" +
                      std::to_string(ro),
                  Locus{"node", n.id.value, -1, g.name(n)});
        }
      }
    }
  }
  return rep;
}

// ----------------------------------------------------- fact reports --

namespace {

std::string fact_line(const Graph& g, const Node& n, const AbsintResult& r) {
  const AbsFact& f = r.out(n.id);
  std::string s = "n";
  s += std::to_string(n.id.value);
  if (!g.name(n).empty()) {
    s += " '";
    s += g.name(n);
    s += "'";
  }
  s += " ";
  s += dfg::to_string(n.kind);
  s += " w=";
  s += std::to_string(n.width);
  s += " bits=";
  s += kb_to_string(f.bits);
  if (f.range.valid) {
    s += " range=[";
    s += u128_to_string(f.range.lo);
    s += ",";
    s += u128_to_string(f.range.hi);
    s += "]";
  }
  if (!f.cong.is_top()) {
    s += " cong=";
    s += std::to_string(f.cong.residue);
    s += " mod 2^";
    s += std::to_string(f.cong.modulus_bits);
  }
  s += " demanded=";
  s += std::to_string(r.demanded_width(n.id));
  s += "/";
  s += std::to_string(n.width);
  return s;
}

}  // namespace

std::string absint_facts_text(const Graph& g, const AbsintResult& r) {
  std::string out = "absint fixpoint: " + std::to_string(g.node_count()) +
                    " nodes, " + std::to_string(r.rounds) + " round(s)\n";
  for (const Node& n : g.nodes()) out += "  " + fact_line(g, n, r) + "\n";
  return out;
}

std::string absint_facts_json(const Graph& g, const AbsintResult& r) {
  std::string out = "{\"rounds\": " + std::to_string(r.rounds) +
                    ", \"nodes\": [";
  bool first = true;
  for (const Node& n : g.nodes()) {
    const AbsFact& f = r.out(n.id);
    if (!first) out += ",";
    first = false;
    out += "{\"id\": " + std::to_string(n.id.value) + ", \"name\": ";
    obs::json_append_quoted(out, g.name(n));
    out += ", \"kind\": \"" + std::string(dfg::to_string(n.kind)) +
           "\", \"width\": " + std::to_string(n.width);
    out += ", \"known\": \"" + kb_to_string(f.bits) + "\"";
    if (f.range.valid) {
      out += ", \"range\": {\"lo\": \"" + u128_to_string(f.range.lo) +
             "\", \"hi\": \"" + u128_to_string(f.range.hi) + "\"}";
    } else {
      out += ", \"range\": null";
    }
    if (!f.cong.is_top()) {
      out += ", \"cong\": {\"mod_bits\": " +
             std::to_string(f.cong.modulus_bits) +
             ", \"residue\": " + std::to_string(f.cong.residue) + "}";
    } else {
      out += ", \"cong\": null";
    }
    out += ", \"demanded_width\": " + std::to_string(r.demanded_width(n.id)) +
           "}";
  }
  out += "]}";
  return out;
}

}  // namespace dpmerge::check
