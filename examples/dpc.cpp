// dpc — a miniature datapath compiler built on the dpmerge library:
// compiles an RTL-expression source file (see dpmerge/frontend/parser.h for
// the language) through the paper's analysis + merging pipeline down to a
// gate netlist, and reports what each stage did.
//
// Usage: dpc [file] [options]      (no file: compile a built-in demo)
//   --verilog          print structural Verilog of the merged netlist
//   --fold             run constant folding / strength reduction first
//   --booth            radix-4 Booth partial products
//   --simplify         netlist clean-up (CSE + constant sweep) at the end
//   --adder=<arch>     ripple | kogge-stone | brent-kung | carry-select

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "dpmerge/frontend/parser.h"
#include "dpmerge/netlist/simplify.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "dpmerge/transform/const_fold.h"

namespace {

constexpr const char* kDemo = R"(# built-in demo: a small filter kernel
design demo
input x0 : s8
input x1 : s8
input x2 : s8
input k  : u4
let acc : s12 = 3 * x0 + (x1 << 1) + x2
output y : s14 = acc - k
output sat : u1 = acc < k
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace dpmerge;

  std::string source = kDemo;
  bool emit_verilog = false, fold = false, do_simplify = false;
  synth::SynthOptions sopt;
  std::string name = "demo";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verilog") == 0) {
      emit_verilog = true;
    } else if (std::strcmp(argv[i], "--fold") == 0) {
      fold = true;
    } else if (std::strcmp(argv[i], "--booth") == 0) {
      sopt.booth_multipliers = true;
    } else if (std::strcmp(argv[i], "--simplify") == 0) {
      do_simplify = true;
    } else if (std::strncmp(argv[i], "--adder=", 8) == 0) {
      const std::string a = argv[i] + 8;
      if (a == "ripple") sopt.adder = synth::AdderArch::Ripple;
      else if (a == "kogge-stone") sopt.adder = synth::AdderArch::KoggeStone;
      else if (a == "brent-kung") sopt.adder = synth::AdderArch::BrentKung;
      else if (a == "carry-select") sopt.adder = synth::AdderArch::CarrySelect;
      else {
        std::fprintf(stderr, "unknown adder '%s'\n", a.c_str());
        return 2;
      }
    } else {
      std::ifstream f(argv[i]);
      if (!f) {
        std::fprintf(stderr, "cannot open '%s'\n", argv[i]);
        return 2;
      }
      std::ostringstream ss;
      ss << f.rdbuf();
      source = ss.str();
      name = argv[i];
    }
  }

  frontend::CompileResult compiled;
  try {
    compiled = frontend::compile(source);
  } catch (const frontend::ParseError& e) {
    std::fprintf(stderr, "%s: %s [%s]\n", name.c_str(), e.what(),
                 e.rule().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return 1;
  }
  if (!compiled.name.empty()) name = compiled.name;

  std::fprintf(stderr, "design '%s': %d nodes, %d inputs, %d outputs\n",
               name.c_str(), compiled.graph.node_count(),
               static_cast<int>(compiled.graph.inputs().size()),
               static_cast<int>(compiled.graph.outputs().size()));

  dfg::Graph work = compiled.graph;
  if (fold) {
    transform::FoldStats fs;
    work = transform::fold_constants(work, &fs);
    std::fprintf(stderr,
                 "fold: %d constant cones, %d strength reductions, %d "
                 "identities\n",
                 fs.constants_folded, fs.strength_reduced,
                 fs.identities_removed);
  }

  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  synth::FlowResult chosen;
  for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                    synth::Flow::NewMerge}) {
    auto res = synth::run_flow(work, flow, sopt);
    const auto rep = sta.analyze(res.net);
    std::fprintf(stderr,
                 "  %-9s: %2d cluster(s), %5d gates, %6.2f ns, area %7.0f\n",
                 std::string(synth::to_string(flow)).c_str(),
                 res.partition.num_clusters(), res.net.gate_count(),
                 rep.longest_path_ns, sta.area(res.net));
    if (flow == synth::Flow::NewMerge) chosen = std::move(res);
  }
  if (do_simplify) {
    netlist::SimplifyStats ss;
    chosen.net = netlist::simplify(chosen.net, &ss);
    std::fprintf(stderr, "simplify: %d -> %d gates\n", ss.gates_before,
                 ss.gates_after);
  }

  Rng rng(1);
  std::string why;
  // Verify against the ORIGINAL compiled graph — folding must be invisible.
  if (!synth::verify_netlist(chosen.net, compiled.graph, 64, rng, &why)) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s\n", why.c_str());
    return 1;
  }
  std::fprintf(stderr, "netlist verified on 64 random vectors\n");

  if (emit_verilog) {
    std::fputs(netlist::to_verilog(chosen.net, name).c_str(), stdout);
  }
  return 0;
}
