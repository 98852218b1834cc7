#include "dpmerge/netlist/verilog.h"

#include <algorithm>
#include <sstream>

namespace dpmerge::netlist {

namespace {

constexpr const char* kDriveSuffix[kDriveLevels] = {"X1", "X2", "X4"};
/// Input pin names in pin order (MUX2's third pin is its select); every
/// cell's output pin is Y.
constexpr const char* kPinNames[kMaxCellInputs] = {"A", "B", "S"};

}  // namespace

std::string to_verilog(const Netlist& n, const std::string& module_name) {
  std::ostringstream os;
  os << "module " << module_name << " (";
  bool first = true;
  for (const Bus& b : n.inputs()) {
    os << (first ? "" : ", ") << b.name;
    first = false;
  }
  for (const Bus& b : n.outputs()) {
    os << (first ? "" : ", ") << b.name;
    first = false;
  }
  os << ");\n";
  for (const Bus& b : n.inputs()) {
    os << "  input [" << b.signal.width() - 1 << ":0] " << b.name << ";\n";
  }
  for (const Bus& b : n.outputs()) {
    os << "  output [" << b.signal.width() - 1 << ":0] " << b.name << ";\n";
  }

  // Internal nets. Net 0/1 are the constants; primary-input bits alias the
  // port bits via assigns below.
  os << "  wire [" << n.net_count() - 1 << ":0] n;\n";
  os << "  assign n[0] = 1'b0;  // TIELO\n";
  os << "  assign n[1] = 1'b1;  // TIEHI\n";
  for (const Bus& b : n.inputs()) {
    for (int i = 0; i < b.signal.width(); ++i) {
      os << "  assign n[" << b.signal.bit(i).value << "] = " << b.name << "["
         << i << "];\n";
    }
  }

  for (int gi = 0; gi < n.gate_count(); ++gi) {
    const Gate& g = n.gates()[static_cast<std::size_t>(gi)];
    os << "  " << to_string(g.type)
       << kDriveSuffix[std::min<int>(g.drive, kDriveLevels - 1)] << " g" << gi
       << " (";
    for (std::size_t i = 0; NetId in : g.inputs()) {
      os << "." << kPinNames[i++] << "(n[" << in.value << "]), ";
    }
    os << ".Y(n[" << g.output.value << "]));\n";
  }

  for (const Bus& b : n.outputs()) {
    for (int i = 0; i < b.signal.width(); ++i) {
      os << "  assign " << b.name << "[" << i << "] = n["
         << b.signal.bit(i).value << "];\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace dpmerge::netlist
