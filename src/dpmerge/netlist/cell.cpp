#include "dpmerge/netlist/cell.h"

namespace dpmerge::netlist {

std::string_view to_string(CellType t) {
  switch (t) {
    case CellType::INV:
      return "INV";
    case CellType::BUF:
      return "BUF";
    case CellType::NAND2:
      return "NAND2";
    case CellType::NOR2:
      return "NOR2";
    case CellType::AND2:
      return "AND2";
    case CellType::OR2:
      return "OR2";
    case CellType::XOR2:
      return "XOR2";
    case CellType::XNOR2:
      return "XNOR2";
    case CellType::MUX2:
      return "MUX2";
  }
  return "?";
}

std::uint64_t eval_cell_packed(CellType t, const std::uint64_t* in) {
  switch (t) {
    case CellType::INV:
      return ~in[0];
    case CellType::BUF:
      return in[0];
    case CellType::NAND2:
      return ~(in[0] & in[1]);
    case CellType::NOR2:
      return ~(in[0] | in[1]);
    case CellType::AND2:
      return in[0] & in[1];
    case CellType::OR2:
      return in[0] | in[1];
    case CellType::XOR2:
      return in[0] ^ in[1];
    case CellType::XNOR2:
      return ~(in[0] ^ in[1]);
    case CellType::MUX2:
      return (in[0] & ~in[2]) | (in[1] & in[2]);
  }
  return 0;
}

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
