#include "graph/graph_store.h"

#include <algorithm>

namespace frappe::graph {

namespace {
void EraseId(std::vector<EdgeId>* list, EdgeId id) {
  auto it = std::find(list->begin(), list->end(), id);
  if (it != list->end()) list->erase(it);
}
}  // namespace

void GraphStore::RemoveEdge(EdgeId id) {
  if (!EdgeExists(id)) return;
  EdgeRecord& rec = edges_[id];
  EraseId(&nodes_[rec.edge.src].out, id);
  EraseId(&nodes_[rec.edge.dst].in, id);
  rec.alive = false;
  rec.props = PropertyMap();
  --live_edges_;
  ++topology_version_;
}

void GraphStore::RemoveNode(NodeId id) {
  if (!NodeExists(id)) return;
  // Cascade: detach incident edges first. Copy the lists because RemoveEdge
  // mutates them.
  std::vector<EdgeId> incident = nodes_[id].out;
  incident.insert(incident.end(), nodes_[id].in.begin(), nodes_[id].in.end());
  for (EdgeId e : incident) RemoveEdge(e);
  NodeRecord& rec = nodes_[id];
  rec.alive = false;
  rec.props = PropertyMap();
  rec.out.clear();
  rec.out.shrink_to_fit();
  rec.in.clear();
  rec.in.shrink_to_fit();
  --live_nodes_;
  ++topology_version_;
}

void GraphStore::ForEachEdge(NodeId id, Direction dir,
                             const EdgeVisitor& fn) const {
  if (!NodeExists(id)) return;
  const NodeRecord& rec = nodes_[id];
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    for (EdgeId e : rec.out) {
      if (!fn(e, edges_[e].edge.dst)) return;
    }
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    for (EdgeId e : rec.in) {
      // Report self-loops once (already visited in the out pass).
      if (dir == Direction::kBoth && edges_[e].edge.src == id) continue;
      if (!fn(e, edges_[e].edge.src)) return;
    }
  }
}

GraphStore::MemoryBreakdown GraphStore::EstimateMemory() const {
  MemoryBreakdown out;
  for (const NodeRecord& n : nodes_) {
    out.nodes += sizeof(NodeRecord) +
                 (n.out.capacity() + n.in.capacity()) * sizeof(EdgeId);
    out.properties += n.props.byte_size();
  }
  for (const EdgeRecord& e : edges_) {
    out.relationships += sizeof(EdgeRecord);
    out.properties += e.props.byte_size();
  }
  out.properties += strings_.payload_bytes();
  return out;
}

}  // namespace frappe::graph
