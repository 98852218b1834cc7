// Allocation counts on the two backend paths whose storage keeps clear of
// the allocator: the DFG interpreter over values of at most 64 bits (each
// BitVector one inline word) and netlist growth (gate and net arrays that
// grow by realloc, doubling). A replacement global `operator new` and, on
// glibc, an interposed `realloc` count every call made while a test's
// counting window is open. Sanitizer builds keep their runtime's allocator:
// the hooks are compiled out there and the tests skip.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/netlist/netlist.h"
#include "dpmerge/support/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_news{0};
std::atomic<std::int64_t> g_reallocs{0};

/// Counts allocations made between construction and `stop()`.
class CountingWindow {
 public:
  CountingWindow() {
    g_news = 0;
    g_reallocs = 0;
    g_counting = true;
  }
  ~CountingWindow() { g_counting = false; }
  CountingWindow(const CountingWindow&) = delete;
  CountingWindow& operator=(const CountingWindow&) = delete;

  void stop() { g_counting = false; }
  std::int64_t news() const { return g_news; }
  std::int64_t reallocs() const { return g_reallocs; }
};

}  // namespace

#ifndef DPMERGE_SANITIZER_BUILD
constexpr bool kHooked = true;

// GCC pairs its built-in knowledge of `operator new` with the inlined
// `free` below and warns; the replacement pair is malloc/free throughout.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GLIBC__)
extern "C" void* __libc_realloc(void* p, std::size_t n);
extern "C" void* realloc(void* p, std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) ++g_reallocs;
  return __libc_realloc(p, n);
}
#endif
#else
constexpr bool kHooked = false;
#endif

namespace dpmerge {
namespace {

TEST(AllocationGuard, EvaluatorRunAllocatesTheSameOnEveryPaperDesign) {
  if (!kHooked) GTEST_SKIP() << "the sanitizer runtime owns operator new";
  std::vector<std::int64_t> counts;
  std::vector<int> node_counts;
  for (const designs::Testcase& tc : designs::all_testcases()) {
    for (const dfg::Node& n : tc.graph.nodes()) {
      ASSERT_LE(n.width, 64) << tc.name;  // every value is one inline word
    }
    const dfg::Evaluator ev(tc.graph);
    Rng rng(11);
    const std::vector<BitVector> stim = ev.random_inputs(rng);
    CountingWindow window;
    const std::vector<BitVector> values = ev.run(stim);
    window.stop();
    ASSERT_EQ(values.size(), tc.graph.nodes().size());
    counts.push_back(window.news() + window.reallocs());
    node_counts.push_back(tc.graph.node_count());
  }
  ASSERT_EQ(counts.size(), 5u);
  // One block, the result vector, whatever the node count.
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], 1) << "D" << i + 1 << " (" << node_counts[i]
                            << " nodes)";
  }
}

TEST(AllocationGuard, NetlistGrowthIsLogarithmic) {
  if (!kHooked) GTEST_SKIP() << "the sanitizer runtime owns operator new";
  constexpr int kGates = 1 << 20;
  netlist::Netlist n;
  const netlist::NetId a = n.new_net();
  const netlist::NetId b = n.new_net();
  CountingWindow window;
  netlist::NetId last = a;
  for (int i = 0; i < kGates; ++i) {
    last = n.add_gate(i % 2 ? netlist::CellType::AND2 : netlist::CellType::XOR2,
                      {last, b});
  }
  window.stop();
  ASSERT_EQ(n.gate_count(), kGates);
  // Three arrays (gates, driver per net, owner per gate), each doubling.
  const double bound = 3 * (std::log2(static_cast<double>(kGates)) + 1);
  EXPECT_LE(window.news() + window.reallocs(), bound)
      << window.news() << " operator new, " << window.reallocs()
      << " realloc";
}

}  // namespace
}  // namespace dpmerge
