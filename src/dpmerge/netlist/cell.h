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
constexpr std::array<std::uint8_t, kCellTypeCount> kCellInputs = {
    1, 1, 2, 2, 2, 2, 2, 2, 3};

/// Input pin count per cell type: a table, since STA and the packed
/// simulator read it for every gate.
constexpr int cell_input_count(CellType t) {
  return kCellInputs[static_cast<std::size_t>(t)];
}
// `kCellInputs` follows the enum by position; a new cell must extend both.
static_assert(static_cast<int>(CellType::MUX2) + 1 == kCellTypeCount &&
              cell_input_count(CellType::INV) == 1 &&
              cell_input_count(CellType::MUX2) == kMaxCellInputs);

std::string_view to_string(CellType t);

/// Evaluates the boolean function of a cell on 64 independent stimulus
/// lanes at once. `in` points at `cell_input_count(t)` words; bit L of
/// every word belongs to lane L, and bit L of the result is the cell output
/// in that lane.
std::uint64_t eval_cell_packed(CellType t, const std::uint64_t* in);

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
