#include "dpmerge/analysis/huffman.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace dpmerge::analysis {

namespace {

/// Step 1's order: content width, ties broken toward unsigned so that
/// same-sign combinations (which keep the paper's tight max+1 rule) are
/// preferred. A strict total order on (width, U < S).
bool key_less(InfoContent a, InfoContent b) {
  if (a.width != b.width) return a.width < b.width;
  return a.sign == Sign::Unsigned && b.sign == Sign::Signed;
}

/// |c|, the number of copies an addend contributes.
std::int64_t copies_of(const Addend& a) {
  if (a.coefficient == std::numeric_limits<std::int64_t>::min()) {
    throw std::invalid_argument(
        "huffman: coefficient -2^63 has no int64 magnitude");
  }
  return a.coefficient < 0 ? -a.coefficient : a.coefficient;
}

InfoContent per_copy(const Addend& a) {
  return a.coefficient < 0 ? ic_neg(a.info) : a.info;
}

/// `count` copies of one distinct content value.
struct Bucket {
  InfoContent key;
  std::int64_t count;
};

/// Adds `n` copies of `key` to `buckets`, kept sorted by descending key so
/// the smallest key is at the back.
void add_copies(std::vector<Bucket>& buckets, InfoContent key,
                std::int64_t n) {
  const auto it = std::lower_bound(
      buckets.begin(), buckets.end(), key,
      [](const Bucket& b, InfoContent k) { return key_less(k, b.key); });
  if (it != buckets.end() && it->key == key) {
    it->count += n;
  } else {
    buckets.insert(it, Bucket{key, n});
  }
}

}  // namespace

std::vector<InfoContent> expand_addends(const std::vector<Addend>& addends) {
  std::vector<InfoContent> flat;
  for (const Addend& a : addends) {
    const std::int64_t copies = copies_of(a);
    const InfoContent ic = per_copy(a);
    for (std::int64_t c = 0; c < copies; ++c) flat.push_back(ic);
  }
  return flat;
}

// Step 2 of the algorithm repeatedly combines the two smallest values of the
// multiset (a min-heap in the paper). This runs the same combination
// sequence over counted buckets instead of expanded copies:
//  - the order is a strict total order on (width, sign), so equal keys are
//    identical values and it does not matter which copy a heap pops;
//  - for a <= b, ic_add(a, b) is never below b in that order (width 0 returns
//    b; otherwise the width strictly grows), so a combination never jumps
//    ahead of a value still waiting in the multiset.
// Hence when the smallest key k has n >= 2 copies, the heap's next
// floor(n/2) steps each pop two copies of k and push ic_add(k, k) > k,
// leaving n mod 2 copies; when ic_add(k, k) == k (width 0) each step just
// drops one copy, so n collapses to 1. With n == 1 the heap pops k and one
// copy of the next key k2 and pushes ic_add(k, k2), smaller operand first
// (ic_add is not symmetric on two width-0 contents of opposite sign). Each
// step below is therefore exactly a run of the heap's ic_add calls, at O(K)
// per step for K distinct keys instead of O(log sum|c|) per copy.
InfoContent huffman_rebalanced_bound(const std::vector<Addend>& addends) {
  std::vector<Bucket> buckets;
  std::int64_t total = 0;
  for (const Addend& a : addends) {
    const std::int64_t n = copies_of(a);
    if (n == 0) continue;
    if (n > std::numeric_limits<std::int64_t>::max() - total) {
      throw std::invalid_argument(
          "huffman: total addend copies exceed 2^63-1");
    }
    total += n;
    add_copies(buckets, per_copy(a), n);
  }
  if (buckets.empty()) return {0, Sign::Unsigned};

  while (buckets.size() > 1 || buckets.back().count > 1) {
    const Bucket lo = buckets.back();
    if (lo.count >= 2) {
      const InfoContent sum = ic_add(lo.key, lo.key);
      if (sum == lo.key) {
        buckets.back().count = 1;
        continue;
      }
      if (lo.count % 2 == 0) {
        buckets.pop_back();
      } else {
        buckets.back().count = 1;
      }
      add_copies(buckets, sum, lo.count / 2);
    } else {
      buckets.pop_back();
      Bucket& next = buckets.back();
      const InfoContent sum = ic_add(lo.key, next.key);
      if (--next.count == 0) buckets.pop_back();
      add_copies(buckets, sum, 1);
    }
  }
  return buckets.back().key;
}

InfoContent sequential_bound(const std::vector<Addend>& addends) {
  const auto flat = expand_addends(addends);
  if (flat.empty()) return {0, Sign::Unsigned};
  InfoContent acc = flat.front();
  for (std::size_t i = 1; i < flat.size(); ++i) acc = ic_add(acc, flat[i]);
  return acc;
}

namespace {

InfoContent best_over_orders(std::vector<InfoContent> items) {
  if (items.size() == 1) return items[0];
  InfoContent best{1 << 30, Sign::Signed};
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      std::vector<InfoContent> next;
      next.reserve(items.size() - 1);
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (k != i && k != j) next.push_back(items[k]);
      }
      next.push_back(ic_add(items[i], items[j]));
      best = ic_meet(best, best_over_orders(std::move(next)));
    }
  }
  return best;
}

}  // namespace

InfoContent exhaustive_best_bound(const std::vector<Addend>& addends) {
  const auto flat = expand_addends(addends);
  if (flat.empty()) return {0, Sign::Unsigned};
  return best_over_orders(flat);
}

}  // namespace dpmerge::analysis
