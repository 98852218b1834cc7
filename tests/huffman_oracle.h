// Reference oracle for Huffman_Rebalancing (Section 5.2): the literal
// algorithm over the expanded multiset — one min-heap entry per addend copy,
// repeatedly combining the two smallest. The bucketed
// `analysis::huffman_rebalanced_bound` must return exactly its result.

#pragma once

#include <queue>
#include <utility>
#include <vector>

#include "dpmerge/analysis/huffman.h"

namespace dpmerge::analysis::oracle {

inline InfoContent heap_huffman_bound(const std::vector<Addend>& addends) {
  auto flat = expand_addends(addends);
  if (flat.empty()) return {0, Sign::Unsigned};

  // Min-heap ordered by content width, ties broken toward unsigned.
  auto cmp = [](const InfoContent& a, const InfoContent& b) {
    if (a.width != b.width) return a.width > b.width;
    return a.sign == Sign::Signed && b.sign == Sign::Unsigned;
  };
  std::priority_queue<InfoContent, std::vector<InfoContent>, decltype(cmp)>
      heap(cmp, std::move(flat));
  while (heap.size() > 1) {
    const InfoContent m1 = heap.top();
    heap.pop();
    const InfoContent m2 = heap.top();
    heap.pop();
    heap.push(ic_add(m1, m2));
  }
  return heap.top();
}

}  // namespace dpmerge::analysis::oracle
