#pragma once

#include <iosfwd>
#include <string>

#include "dpmerge/dfg/graph.h"

namespace dpmerge::dfg {

/// Plain-text serialisation of DFGs, so designs can be stored in files and
/// fed to the tools (examples/width_inspector reads it). One declaration per
/// line; `#` starts a comment. Node names are assigned to every node
/// (auto-generated `_n<k>` where the graph has none):
///
///   dfg v1
///   input a 8            # name width  (inputs carry their value signedness
///   input b 8 unsigned   #  as an optional third token, default signed)
///   const k 8 -5         # name width value
///   node t add 9         # name kind width   (kinds: add sub mul neg shl
///   node s shl 12 3      #  lts ltu eq ext; shl takes the shift amount,
///   node e ext 12 signed #  ext takes the extension signedness)
///   edge a t 0 9 signed  # src dst port width signedness
///   output r 9           # name width
///   edge t r 0 9 signed
///
/// `parse_graph` throws std::invalid_argument with a line number on malformed
/// input, including widths and shift amounts past `kMaxWidth`; the result
/// always passes Graph::validate().
std::string to_text(const Graph& g);
Graph parse_graph(const std::string& text);

}  // namespace dpmerge::dfg
