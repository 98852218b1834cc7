// support::PodBuffer, the realloc-grown array behind the netlist's gate and
// net arrays: append and index, copy, move and self-assignment, and growth
// past 64 MiB keeping every element.

#include "dpmerge/support/pod_buffer.h"

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::support {
namespace {

PodBuffer<int> iota(int n, int from = 0) {
  PodBuffer<int> b;
  for (int i = 0; i < n; ++i) b.push_back(from + i);
  return b;
}

void expect_iota(const PodBuffer<int>& b, int n, int from = 0) {
  ASSERT_EQ(b.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ASSERT_EQ(b[static_cast<std::size_t>(i)], from + i);
}

TEST(PodBuffer, StartsEmpty) {
  const PodBuffer<int> b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.begin(), b.end());
  EXPECT_TRUE(b.span().empty());
  const PodBuffer<int> copy = b;
  EXPECT_EQ(copy.size(), 0u);
}

TEST(PodBuffer, AppendIndexIterate) {
  PodBuffer<int> b = iota(1000);
  expect_iota(b, 1000);
  b[10] = -1;
  int sum = 0;
  for (int x : b) sum += x;
  EXPECT_EQ(sum, 999 * 1000 / 2 - 10 - 1);
  EXPECT_EQ(b.span().size(), 1000u);
  EXPECT_EQ(b.span().data(), b.begin());
}

TEST(PodBuffer, CopiesAreIndependent) {
  const PodBuffer<int> src = iota(100);
  PodBuffer<int> copy(src);
  copy[0] = 42;
  copy.push_back(7);
  expect_iota(src, 100);
  EXPECT_EQ(copy[0], 42);
  EXPECT_EQ(copy.size(), 101u);

  PodBuffer<int> big = iota(500, 1);
  big = src;  // fits the existing block
  expect_iota(big, 100);
  PodBuffer<int> small = iota(3, 9);
  small = big;  // needs a larger block
  expect_iota(small, 100);
  small = PodBuffer<int>();  // assigning an empty buffer empties it
  EXPECT_EQ(small.size(), 0u);
  small.push_back(5);
  EXPECT_EQ(small[0], 5);
}

TEST(PodBuffer, MovesTransferTheBlock) {
  PodBuffer<int> src = iota(100);
  const int* block = src.begin();
  PodBuffer<int> moved(std::move(src));
  EXPECT_EQ(moved.begin(), block);
  expect_iota(moved, 100);
  EXPECT_EQ(src.size(), 0u);  // NOLINT(bugprone-use-after-move)
  src.push_back(1);           // a moved-from buffer is reusable
  EXPECT_EQ(src.size(), 1u);

  PodBuffer<int> other = iota(5, 50);
  other = std::move(moved);
  EXPECT_EQ(other.begin(), block);
  expect_iota(other, 100);
}

TEST(PodBuffer, SelfAssignmentKeepsTheContents) {
  PodBuffer<int> b = iota(64);
  PodBuffer<int>& alias = b;
  b = alias;
  expect_iota(b, 64);
  b = std::move(alias);
  expect_iota(b, 64);
}

TEST(PodBuffer, GrowsPast64MiBKeepingItsContents) {
  constexpr std::size_t kWords = (std::size_t{64} << 20) / 8 + 4099;
  PodBuffer<std::uint64_t> b;
  for (std::size_t i = 0; i < kWords; ++i) {
    b.push_back(i * 0x9e3779b97f4a7c15ull);
  }
  ASSERT_EQ(b.size(), kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(b[i], i * 0x9e3779b97f4a7c15ull) << i;
  }
}

TEST(PodBuffer, HoldsGates) {
  PodBuffer<netlist::Gate> gates;
  for (int i = 0; i < 40; ++i) {
    netlist::Gate g;
    g.type = netlist::CellType::MUX2;
    g.drive = static_cast<std::uint8_t>(i % netlist::kDriveLevels);
    g.pins = {netlist::NetId{i}, netlist::NetId{i + 1}, netlist::NetId{i + 3}};
    gates.push_back(g);
  }
  const PodBuffer<netlist::Gate> copy = gates;
  for (int i = 0; i < 40; ++i) {
    const netlist::Gate& g = copy[static_cast<std::size_t>(i)];
    EXPECT_EQ(g.drive, i % netlist::kDriveLevels);
    ASSERT_EQ(g.inputs().size(), 3u);
    EXPECT_EQ(g.inputs()[1].value, i + 1);
    EXPECT_EQ(g.inputs()[2].value, i + 3);
  }
}

}  // namespace
}  // namespace dpmerge::support
