#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dpmerge::netlist {

/// The combinational cell types of the technology library. Arithmetic
/// structures (full adders, carry trees, partial products) are decomposed
/// into these primitives so timing and area are uniform across flows.
enum class CellType : unsigned char {
  INV,
  BUF,
  NAND2,
  NOR2,
  AND2,
  OR2,
  XOR2,
  XNOR2,
  MUX2,  // inputs: {d0, d1, sel}
};

/// Number of `CellType` values (arrays indexed by cell type use this).
constexpr int kCellTypeCount = 9;

constexpr int kMaxCellInputs = 3;  ///< MUX2, the widest cell

/// Every fact about one cell type but its function (`apply_cell`) and its
/// electrical numbers (`CellLibrary`). `kCells` holds one row per
/// `CellType` in enum order; adding a cell means one row here and one case
/// in `apply_cell`.
struct CellInfo {
  CellType type;
  std::string_view name;  ///< library/Verilog cell name
  std::uint8_t inputs;    ///< input pin count
  bool commutative;       ///< the two data pins may be swapped
};

inline constexpr std::array<CellInfo, kCellTypeCount> kCells = {{
    {CellType::INV, "INV", 1, false},
    {CellType::BUF, "BUF", 1, false},
    {CellType::NAND2, "NAND2", 2, true},
    {CellType::NOR2, "NOR2", 2, true},
    {CellType::AND2, "AND2", 2, true},
    {CellType::OR2, "OR2", 2, true},
    {CellType::XOR2, "XOR2", 2, true},
    {CellType::XNOR2, "XNOR2", 2, true},
    {CellType::MUX2, "MUX2", 3, false},
}};

constexpr bool cell_table_follows_enum() {
  for (int i = 0; i < kCellTypeCount; ++i) {
    if (static_cast<int>(kCells[static_cast<std::size_t>(i)].type) != i) {
      return false;
    }
  }
  return static_cast<int>(CellType::MUX2) + 1 == kCellTypeCount &&
         kCells[static_cast<std::size_t>(CellType::MUX2)].inputs ==
             kMaxCellInputs;
}
static_assert(cell_table_follows_enum(),
              "kCells must list CellType in enum order");

/// Input pin count per cell type: STA and the packed simulator read it for
/// every gate, so it is an unchecked table read (`check::verify` rejects a
/// type outside the enum before reading any pin).
constexpr int cell_input_count(CellType t) {
  return kCells[static_cast<std::size_t>(t)].inputs;
}

constexpr bool cell_commutative(CellType t) {
  return kCells[static_cast<std::size_t>(t)].commutative;
}

/// The cell's name; a type outside the enum reads "?".
constexpr std::string_view to_string(CellType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kCells.size() ? kCells[i].name : "?";
}

/// The Boolean function of a cell, the one definition every netlist
/// evaluator shares. `in` points at `cell_input_count(t)` values and `ops`
/// supplies the connectives over them: `not_`, `and_`, `or_`, `xor_`,
/// `xnor_` and `mux(d0, d1, sel)`. The packed simulator instantiates it
/// with 64-lane words, the dead-logic lint with tri-state values and the
/// BDD checker with BDD references. A type outside the enum yields `V{}`.
template <typename V, typename Ops>
inline V apply_cell(CellType t, const V* in, const Ops& ops) {
  switch (t) {
    case CellType::INV:
      return ops.not_(in[0]);
    case CellType::BUF:
      return in[0];
    case CellType::NAND2:
      return ops.not_(ops.and_(in[0], in[1]));
    case CellType::NOR2:
      return ops.not_(ops.or_(in[0], in[1]));
    case CellType::AND2:
      return ops.and_(in[0], in[1]);
    case CellType::OR2:
      return ops.or_(in[0], in[1]);
    case CellType::XOR2:
      return ops.xor_(in[0], in[1]);
    case CellType::XNOR2:
      return ops.xnor_(in[0], in[1]);
    case CellType::MUX2:
      return ops.mux(in[0], in[1], in[2]);
  }
  return V{};
}

/// One drive-strength variant of a cell. The delay model is the standard
/// linear one: pin-to-pin delay = intrinsic + drive_resistance * load, where
/// load is the sum of the fanout pins' input capacitances (normalised units:
/// 1.0 = one X1 inverter input).
struct CellVariant {
  double area;              ///< library area units
  double intrinsic_ns;      ///< unloaded pin-to-pin delay
  double drive_res_ns;      ///< ns per unit of load capacitance
  double input_cap;         ///< load presented per input pin
};

constexpr int kDriveLevels = 3;  // X1, X2, X4

struct CellSpec {
  CellType type;
  std::array<CellVariant, kDriveLevels> variants;
};

/// A small combinational standard-cell library with areas and linear delay
/// coefficients calibrated to the flavour of a 0.25 um process (the paper's
/// TSMC library is proprietary; see DESIGN.md §1 — only relative
/// delay/area between synthesis flows is meaningful).
class CellLibrary {
 public:
  /// The default 0.25 um-class library used by every bench.
  static const CellLibrary& tsmc025();

  const CellSpec& spec(CellType t) const {
    return specs_[static_cast<std::size_t>(t)];
  }
  const CellVariant& variant(CellType t, int drive) const {
    return spec(t).variants[static_cast<std::size_t>(drive)];
  }

 private:
  CellLibrary();
  std::array<CellSpec, kCellTypeCount> specs_;
};

}  // namespace dpmerge::netlist
