#pragma once

#include <string>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::synth {

/// Checks a synthesised netlist against the DFG reference interpreter on
/// `trials` random stimuli plus the all-zeros/all-ones corner patterns,
/// matching buses to DFG inputs/outputs by name. Returns false and fills
/// `why` on the first mismatch. This is the acceptance gate every flow must
/// pass in the test suite.
///
/// Stimuli are simulated through the word-parallel `PackedSimulator` in
/// batches of up to 64 lanes; name->bus bindings are resolved once up
/// front.
bool verify_netlist(const netlist::Netlist& net, const dfg::Graph& g,
                    int trials, Rng& rng, std::string* why = nullptr);

}  // namespace dpmerge::synth
