#pragma once

#include <string>
#include <vector>

#include "dpmerge/dfg/graph.h"

namespace dpmerge::cluster {

/// A cluster of datapath operators (Section 3): a connected induced subgraph
/// of arithmetic operator nodes with a unique output node (the root), whose
/// output value is expressible as a sum of addends derived from the cluster's
/// inputs. Each cluster is synthesised as one CSA reduction tree plus a
/// single final carry-propagate adder.
struct Cluster {
  std::vector<dfg::NodeId> nodes;  ///< Member operator nodes.
  dfg::NodeId root;                ///< Unique output node of the cluster.
  /// Edges entering the cluster from non-member nodes, in deterministic
  /// (edge-id) order; these carry the signals the addends are derived from.
  std::vector<dfg::EdgeId> input_edges;

  int size() const { return static_cast<int>(nodes.size()); }
};

/// A partitioning of a DFG's arithmetic operator nodes into clusters.
struct Partition {
  std::vector<Cluster> clusters;
  /// Node id -> index into `clusters`, or -1 for non-arithmetic nodes
  /// (inputs, outputs, constants, extension nodes).
  std::vector<int> cluster_of;

  int num_clusters() const { return static_cast<int>(clusters.size()); }

  /// Every cluster implies one final carry-propagate adder — the quantity
  /// the paper's merging minimises (Section 1). Clusters whose root performs
  /// no addition at all (a lone Extension would not be clustered; a lone Neg
  /// still needs its +1 increment) all count.
  int num_final_adders() const { return num_clusters(); }

  int index_of(dfg::NodeId n) const {
    return cluster_of[static_cast<std::size_t>(n.value)];
  }

  std::string summary(const dfg::Graph& g) const;
};

/// Builds a Partition from a per-node break decision: every arithmetic
/// operator either joins the (unique, already-decided) cluster of its
/// operator consumers or roots a new cluster. `is_break[n]` = true means n
/// roots its own cluster. Runs in reverse topological order and fills in the
/// member lists and input edges.
Partition partition_from_breaks(const dfg::Graph& g,
                                const std::vector<bool>& is_break);

/// Structural sanity checks for a partition: clusters are connected, each
/// has exactly one node whose out-edges leave the cluster (the root), and
/// every arithmetic node belongs to exactly one cluster. Returns violations.
std::vector<std::string> validate_partition(const dfg::Graph& g,
                                            const Partition& p);

}  // namespace dpmerge::cluster
