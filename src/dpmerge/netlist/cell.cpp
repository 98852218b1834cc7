#include "dpmerge/netlist/cell.h"

namespace dpmerge::netlist {

namespace {

/// X1 baseline for a cell; X2/X4 scale resistance down and area/cap up.
CellSpec make_spec(CellType t, double area, double intrinsic, double res,
                   double cap) {
  CellSpec s;
  s.type = t;
  const double area_k[kDriveLevels] = {1.0, 1.6, 2.6};
  const double res_k[kDriveLevels] = {1.0, 0.55, 0.3};
  const double cap_k[kDriveLevels] = {1.0, 1.7, 2.8};
  for (int d = 0; d < kDriveLevels; ++d) {
    s.variants[static_cast<std::size_t>(d)] = CellVariant{
        area * area_k[d], intrinsic, res * res_k[d], cap * cap_k[d]};
  }
  return s;
}

}  // namespace

CellLibrary::CellLibrary() {
  // 0.25 um-flavour numbers: an unloaded X1 inverter ~25 ps, a fanout-of-1
  // load adds ~15 ps; XOR-class cells are ~4x an inverter. Areas are in
  // relative library units (INV = 1).
  specs_[static_cast<std::size_t>(CellType::INV)] =
      make_spec(CellType::INV, 1.0, 0.025, 0.015, 1.0);
  specs_[static_cast<std::size_t>(CellType::BUF)] =
      make_spec(CellType::BUF, 1.4, 0.045, 0.012, 1.0);
  specs_[static_cast<std::size_t>(CellType::NAND2)] =
      make_spec(CellType::NAND2, 1.5, 0.035, 0.016, 1.1);
  specs_[static_cast<std::size_t>(CellType::NOR2)] =
      make_spec(CellType::NOR2, 1.5, 0.045, 0.020, 1.1);
  specs_[static_cast<std::size_t>(CellType::AND2)] =
      make_spec(CellType::AND2, 2.0, 0.055, 0.016, 1.0);
  specs_[static_cast<std::size_t>(CellType::OR2)] =
      make_spec(CellType::OR2, 2.0, 0.065, 0.018, 1.0);
  specs_[static_cast<std::size_t>(CellType::XOR2)] =
      make_spec(CellType::XOR2, 3.0, 0.100, 0.022, 1.8);
  specs_[static_cast<std::size_t>(CellType::XNOR2)] =
      make_spec(CellType::XNOR2, 3.0, 0.100, 0.022, 1.8);
  specs_[static_cast<std::size_t>(CellType::MUX2)] =
      make_spec(CellType::MUX2, 3.2, 0.085, 0.020, 1.4);
}

const CellLibrary& CellLibrary::tsmc025() {
  static const CellLibrary lib;
  return lib;
}

}  // namespace dpmerge::netlist
