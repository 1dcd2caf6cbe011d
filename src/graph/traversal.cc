#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace frappe::graph {

namespace {

// Expands one node through the filter, invoking fn(edge, neighbor).
void Expand(const GraphView& view, NodeId node, const EdgeFilter& filter,
            const std::function<bool(EdgeId, NodeId)>& fn) {
  view.ForEachEdge(node, filter.direction, [&](EdgeId e, NodeId neighbor) {
    if (!filter.Allows(view.GetEdge(e).type)) return true;
    return fn(e, neighbor);
  });
}

}  // namespace

void Bfs(const GraphView& view, const std::vector<NodeId>& seeds,
         const EdgeFilter& filter,
         const std::function<bool(NodeId, size_t)>& visit, size_t max_depth) {
  std::unordered_set<NodeId> seen;
  std::deque<std::pair<NodeId, size_t>> queue;
  for (NodeId seed : seeds) {
    if (!view.NodeExists(seed)) continue;
    if (seen.insert(seed).second) {
      if (!visit(seed, 0)) return;
      queue.emplace_back(seed, 0);
    }
  }
  bool stopped = false;
  while (!queue.empty() && !stopped) {
    auto [node, depth] = queue.front();
    queue.pop_front();
    if (depth >= max_depth) continue;
    Expand(view, node, filter, [&](EdgeId, NodeId neighbor) {
      if (!seen.insert(neighbor).second) return true;
      if (!visit(neighbor, depth + 1)) {
        stopped = true;
        return false;
      }
      queue.emplace_back(neighbor, depth + 1);
      return true;
    });
  }
}

std::vector<NodeId> TransitiveClosure(const GraphView& view,
                                      const std::vector<NodeId>& seeds,
                                      const EdgeFilter& filter,
                                      size_t max_depth) {
  // Every node reached over >= 1 edges is in the closure — including a seed
  // re-reached through a cycle, which the single queue loop handles
  // naturally (membership is recorded on every expansion, enqueueing only
  // on first visit).
  std::unordered_set<NodeId> member;
  std::unordered_set<NodeId> visited;
  std::deque<std::pair<NodeId, size_t>> queue;
  for (NodeId seed : seeds) {
    if (view.NodeExists(seed) && visited.insert(seed).second) {
      queue.emplace_back(seed, 0);
    }
  }
  while (!queue.empty()) {
    auto [node, depth] = queue.front();
    queue.pop_front();
    if (depth >= max_depth) continue;
    Expand(view, node, filter, [&](EdgeId, NodeId neighbor) {
      member.insert(neighbor);
      if (visited.insert(neighbor).second) {
        queue.emplace_back(neighbor, depth + 1);
      }
      return true;
    });
  }
  std::vector<NodeId> out(member.begin(), member.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> TransitiveClosure(const GraphView& view, NodeId seed,
                                      const EdgeFilter& filter,
                                      size_t max_depth) {
  return TransitiveClosure(view, std::vector<NodeId>{seed}, filter, max_depth);
}

std::optional<Path> ShortestPath(const GraphView& view, NodeId from,
                                 NodeId to, const EdgeFilter& filter) {
  if (!view.NodeExists(from) || !view.NodeExists(to)) return std::nullopt;
  if (from == to) return Path{{from}, {}};
  // Parent pointers for path reconstruction.
  struct Link {
    NodeId parent;
    EdgeId via;
  };
  std::unordered_map<NodeId, Link> parents;
  std::deque<NodeId> queue{from};
  parents.emplace(from, Link{kInvalidNode, kInvalidEdge});
  while (!queue.empty()) {
    NodeId node = queue.front();
    queue.pop_front();
    bool found = false;
    Expand(view, node, filter, [&](EdgeId e, NodeId neighbor) {
      if (parents.count(neighbor)) return true;
      parents.emplace(neighbor, Link{node, e});
      if (neighbor == to) {
        found = true;
        return false;
      }
      queue.push_back(neighbor);
      return true;
    });
    if (found) break;
  }
  auto it = parents.find(to);
  if (it == parents.end()) return std::nullopt;
  Path path;
  NodeId cur = to;
  while (cur != from) {
    const Link& link = parents.at(cur);
    path.nodes.push_back(cur);
    path.edges.push_back(link.via);
    cur = link.parent;
  }
  path.nodes.push_back(from);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

bool IsReachable(const GraphView& view, NodeId from, NodeId to,
                 const EdgeFilter& filter, size_t max_depth) {
  if (!view.NodeExists(from) || !view.NodeExists(to)) return false;
  bool found = false;
  // Reachability over >= 0 edges: a node trivially reaches itself.
  Bfs(
      view, {from}, filter,
      [&](NodeId node, size_t) {
        if (node == to) {
          found = true;
          return false;
        }
        return true;
      },
      max_depth);
  return found;
}

}  // namespace frappe::graph
