#include "dpmerge/netlist/packed_sim.h"

#include <stdexcept>

namespace dpmerge::netlist {

PackedSimulator::PackedSimulator(const Netlist& n)
    : net_(n), order_(n.topo_gates()) {}

std::vector<PackedSimulator::PackedBus> PackedSimulator::run(
    const std::vector<PackedBus>& inputs) const {
  if (inputs.size() != net_.inputs().size()) {
    throw std::invalid_argument("packed stimulus count mismatch");
  }
  std::vector<std::uint64_t> value(static_cast<std::size_t>(net_.net_count()),
                                   0);
  value[1] = ~std::uint64_t{0};  // const1 in every lane

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bus& b = net_.inputs()[i];
    if (static_cast<int>(inputs[i].size()) != b.signal.width()) {
      throw std::invalid_argument("packed stimulus width mismatch for '" +
                                  b.name + "'");
    }
    for (int bit = 0; bit < b.signal.width(); ++bit) {
      value[static_cast<std::size_t>(b.signal.bit(bit).value)] =
          inputs[i][static_cast<std::size_t>(bit)];
    }
  }

  eval_gates(net_, order_, value, PackedOps{});

  std::vector<PackedBus> out(net_.outputs().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Bus& b = net_.outputs()[i];
    out[i].resize(static_cast<std::size_t>(b.signal.width()));
    for (int bit = 0; bit < b.signal.width(); ++bit) {
      out[i][static_cast<std::size_t>(bit)] =
          value[static_cast<std::size_t>(b.signal.bit(bit).value)];
    }
  }
  return out;
}

std::vector<std::vector<BitVector>> PackedSimulator::run_batch(
    const std::vector<std::vector<BitVector>>& stimuli) const {
  const std::size_t lanes = stimuli.size();
  if (lanes == 0) return {};
  if (lanes > static_cast<std::size_t>(kLanes)) {
    throw std::invalid_argument("more than 64 lanes in one batch");
  }
  // Pack: word for bit b of bus i has stimuli[L][i].bit(b) in bit L.
  std::vector<PackedBus> packed(net_.inputs().size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const int width = net_.inputs()[i].signal.width();
    packed[i].assign(static_cast<std::size_t>(width), 0);
    for (std::size_t L = 0; L < lanes; ++L) {
      if (stimuli[L].size() != packed.size()) {
        throw std::invalid_argument("lane stimulus count mismatch");
      }
      const BitVector& v = stimuli[L][i];
      if (v.width() != width) {
        throw std::invalid_argument("lane stimulus width mismatch for '" +
                                    net_.inputs()[i].name + "'");
      }
      for (int b = 0; b < width; ++b) {
        packed[i][static_cast<std::size_t>(b)] |=
            static_cast<std::uint64_t>(v.bit(b)) << L;
      }
    }
  }

  const auto packed_out = run(packed);

  std::vector<std::vector<BitVector>> results(lanes);
  for (std::size_t L = 0; L < lanes; ++L) {
    results[L].reserve(packed_out.size());
    for (std::size_t j = 0; j < packed_out.size(); ++j) {
      BitVector v(static_cast<int>(packed_out[j].size()));
      for (std::size_t b = 0; b < packed_out[j].size(); ++b) {
        v.set_bit(static_cast<int>(b), (packed_out[j][b] >> L) & 1u);
      }
      results[L].push_back(std::move(v));
    }
  }
  return results;
}

}  // namespace dpmerge::netlist
