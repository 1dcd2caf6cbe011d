#ifndef FRAPPE_GRAPH_TRAVERSAL_H_
#define FRAPPE_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph_view.h"

namespace frappe::graph {

// Which edges an expansion step may follow.
struct EdgeFilter {
  // Empty means "any edge type".
  std::vector<TypeId> types;
  Direction direction = Direction::kOut;

  static EdgeFilter Any(Direction dir = Direction::kOut) {
    return EdgeFilter{{}, dir};
  }
  static EdgeFilter Of(std::vector<TypeId> types,
                       Direction dir = Direction::kOut) {
    return EdgeFilter{std::move(types), dir};
  }

  bool Allows(TypeId type) const {
    if (types.empty()) return true;
    for (TypeId t : types) {
      if (t == type) return true;
    }
    return false;
  }
};

// Result of a path search: node sequence and the edges between them.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;

  size_t Length() const { return edges.size(); }
  bool operator==(const Path&) const = default;
};

// Breadth-first expansion from `seeds`, visiting each node at most once.
// `visit(node, depth)` is called for every reached node (seeds at depth 0);
// returning false stops the whole traversal. This direct adjacency walk is
// the paper's workaround for Cypher's unusable transitive-closure
// performance ("computed via Neo4j's Java API in ~20ms", Section 6.1).
void Bfs(const GraphView& view, const std::vector<NodeId>& seeds,
         const EdgeFilter& filter,
         const std::function<bool(NodeId, size_t depth)>& visit,
         size_t max_depth = std::numeric_limits<size_t>::max());

// All nodes reachable from `seed` in 1..max_depth steps (excluding the seed
// unless it is reachable via a cycle). Sorted by node id. This is the
// Figure 6 "transitive closure of outgoing calls" computed the fast way.
std::vector<NodeId> TransitiveClosure(
    const GraphView& view, NodeId seed, const EdgeFilter& filter,
    size_t max_depth = std::numeric_limits<size_t>::max());
std::vector<NodeId> TransitiveClosure(
    const GraphView& view, const std::vector<NodeId>& seeds,
    const EdgeFilter& filter,
    size_t max_depth = std::numeric_limits<size_t>::max());

// Shortest path (fewest edges) from `from` to `to`, or nullopt if
// unreachable. Bidirectional BFS when the filter direction is symmetric
// enough; plain BFS otherwise.
std::optional<Path> ShortestPath(const GraphView& view, NodeId from,
                                 NodeId to, const EdgeFilter& filter);

// True if `to` is reachable from `from` within max_depth steps.
bool IsReachable(const GraphView& view, NodeId from, NodeId to,
                 const EdgeFilter& filter,
                 size_t max_depth = std::numeric_limits<size_t>::max());

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_TRAVERSAL_H_
