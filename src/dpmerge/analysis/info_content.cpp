#include "dpmerge/analysis/info_content.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::analysis {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;

std::string InfoContent::to_string() const {
  return std::string("<").append(std::to_string(width)).append(
      sign == Sign::Signed ? ", s>" : ", u>");
}

namespace {

/// <i,u> viewed as a signed claim costs one extra bit (the 0 sign bit);
/// signed claims are returned unchanged.
InfoContent as_signed(InfoContent a) {
  if (a.sign == Sign::Signed) return a;
  return {a.width + 1, Sign::Signed};
}

}  // namespace

InfoContent ic_add(InfoContent a, InfoContent b) {
  if (a.width == 0) return b;  // adding the constant 0
  if (b.width == 0) return a;
  if (a.sign == b.sign) {
    return {std::max(a.width, b.width) + 1, a.sign};  // Lemma 5.4
  }
  // Mixed signedness: normalise to signed first (sound variant; DESIGN.md §2).
  const InfoContent sa = as_signed(a);
  const InfoContent sb = as_signed(b);
  return {std::max(sa.width, sb.width) + 1, Sign::Signed};
}

InfoContent ic_sub(InfoContent a, InfoContent b) {
  if (b.width == 0) return a;  // subtracting the constant 0
  if (a.sign == b.sign) {
    // Lemma 5.4: sound for u-u as well as s-s (range analysis in DESIGN.md).
    return {std::max(a.width, b.width) + 1, Sign::Signed};
  }
  const InfoContent sa = as_signed(a);
  const InfoContent sb = as_signed(b);
  return {std::max(sa.width, sb.width) + 1, Sign::Signed};
}

InfoContent ic_mul(InfoContent a, InfoContent b) {
  if (a.width == 0 || b.width == 0) return {0, Sign::Unsigned};  // times 0
  return {a.width + b.width, a.sign | b.sign};  // Lemma 5.4
}

InfoContent ic_neg(InfoContent a) {
  if (a.width == 0) return a;  // -0
  return {a.width + 1, Sign::Signed};  // Lemma 5.4
}

InfoContent ic_meet(InfoContent a, InfoContent b) {
  return b.width < a.width ? b : a;
}

InfoContent ic_clip(InfoContent ic, int width) {
  if (ic.width >= width) return {width, ic.sign};
  return ic;
}

InfoContent ic_resize(InfoContent ic, int from_width, int to_width, Sign ext) {
  if (to_width <= from_width) {
    // Truncation: a t-extension of i LSBs truncated to k >= i bits is still a
    // t-extension of its i LSBs; truncated below i the claim becomes the
    // vacuous <k, t>.
    return {std::min(ic.width, to_width), ic.sign};
  }
  // Strict widening by `ext`.
  if (ic.width >= from_width) {
    // The claim was vacuous for the carrier; the extension itself creates the
    // structure: the result is an ext-extension of its from_width LSBs.
    return {from_width, ext};
  }
  if (ic.sign == ext) return ic;
  if (ic.sign == Sign::Unsigned && ext == Sign::Signed) {
    // The paper's "interesting case": the MSB of the carrier is 0 (strict
    // unsigned content), so sign extension pads zeros; the data stays
    // unsigned.
    return ic;
  }
  // Signed content zero-padded: bits [i, from_width) may be ones, the pad is
  // zeros; only the full original width is claimable, as unsigned.
  return {from_width, Sign::Unsigned};
}

namespace {

/// The information-content algebra of `dfg::deliver` and `dfg::apply_op`:
/// `ic_resize` across a resize, the Input and Const claims, and Lemma 5.4
/// per operator (a shift by s adds s low zeros; a comparator's result is
/// one unsigned bit).
struct IcOps {
  using Value = InfoContent;
  InfoContent resize(InfoContent ic, int from, int to, Sign ext) const {
    return ic_resize(ic, from, to, ext);
  }
  InfoContent input(const Node& n) const { return {n.width, n.ext_sign}; }
  /// The exact claim of a constant: the narrower of its unsigned and
  /// signed minimal extensions (ties unsigned).
  InfoContent constant(const Node& n) const {
    const int iu = n.value.min_extension_width(Sign::Unsigned);
    const int is = n.value.min_extension_width(Sign::Signed);
    if (iu <= is) return {iu, Sign::Unsigned};
    return {is, Sign::Signed};
  }
  InfoContent neg(InfoContent a, int /*w*/) const { return ic_neg(a); }
  InfoContent add(InfoContent a, InfoContent b, int /*w*/) const {
    return ic_add(a, b);
  }
  InfoContent sub(InfoContent a, InfoContent b, int /*w*/) const {
    return ic_sub(a, b);
  }
  InfoContent mul(InfoContent a, InfoContent b, int /*w*/) const {
    return ic_mul(a, b);
  }
  InfoContent shl(InfoContent a, int s, int /*w*/) const {
    return {a.width + s, a.sign};
  }
  InfoContent lt(InfoContent, InfoContent, Sign, int /*w*/) const {
    return {1, Sign::Unsigned};
  }
  InfoContent eq(InfoContent, InfoContent, int /*w*/) const {
    return {1, Sign::Unsigned};
  }
};

}  // namespace

EdgeClaims ic_edge(InfoContent src, int src_width, const Edge& e,
                   const Node& dst) {
  return dfg::deliver(src, src_width, e, dst, IcOps{});
}

InfoContent ic_intrinsic(const Node& n, std::span<const InfoContent> operands,
                         const InfoRefinements* refinements) {
  const InfoContent intrinsic = dfg::apply_op(n, operands, IcOps{});
  const auto idx = static_cast<std::size_t>(n.id.value);
  if (refinements && idx < refinements->size() && (*refinements)[idx]) {
    return ic_meet(intrinsic, *(*refinements)[idx]);
  }
  return intrinsic;
}

InfoAnalysis compute_info_content(const Graph& g,
                                  const InfoRefinements& refinements,
                                  int /*threads*/) {
  obs::Span span("analysis.info_content");
  obs::stat_add("analysis.info_content.runs");
  const dfg::Csr& c = g.freeze();
  InfoAnalysis ia;
  ia.at_output_port.assign(static_cast<std::size_t>(g.node_count()), {});
  ia.intrinsic.assign(static_cast<std::size_t>(g.node_count()), {});
  ia.at_edge.assign(static_cast<std::size_t>(g.edge_count()), {});
  ia.at_operand.assign(static_cast<std::size_t>(g.edge_count()), {});

  for (NodeId id : c.topo) {
    const Node& n = g.node(id);
    const std::span<const std::int32_t> ins = c.in(id);
    const auto arity = static_cast<std::size_t>(dfg::operand_count(n.kind));
    std::array<InfoContent, 2> operands;
    for (std::size_t p = 0; p < arity; ++p) {
      const Edge& e = g.edge(EdgeId{ins[p]});
      const EdgeClaims ec = ic_edge(
          ia.at_output_port[static_cast<std::size_t>(e.src.value)],
          g.node(e.src).width, e, n);
      ia.at_edge[static_cast<std::size_t>(ins[p])] = ec.carried;
      ia.at_operand[static_cast<std::size_t>(ins[p])] = ec.delivered;
      operands[p] = ec.delivered;
    }
    const InfoContent intrinsic = ic_intrinsic(
        n, std::span(operands).first(arity), &refinements);
    const auto idx = static_cast<std::size_t>(id.value);
    ia.intrinsic[idx] = intrinsic;
    ia.at_output_port[idx] = ic_clip(intrinsic, n.width);
  }
  return ia;
}

}  // namespace dpmerge::analysis
