#include "temporal/version_store.h"

#include <algorithm>

namespace frappe::temporal {

using graph::EdgeId;
using graph::NodeId;

NodeId VersionStore::AddNode(graph::TypeId type) {
  NodeId id = store_.AddNode(type);
  node_intervals_.push_back(Interval{committed_, kLive});
  return id;
}

EdgeId VersionStore::AddEdge(NodeId src, NodeId dst, graph::TypeId type) {
  if (!NodeAliveNow(src) || !NodeAliveNow(dst)) return graph::kInvalidEdge;
  EdgeId id = store_.AddEdge(src, dst, type);
  if (id == graph::kInvalidEdge) return id;
  edge_intervals_.push_back(Interval{committed_, kLive});
  return id;
}

void VersionStore::RemoveEdge(EdgeId id) {
  if (!EdgeAliveNow(id)) return;
  edge_intervals_[id].to = committed_;
}

void VersionStore::RemoveNode(NodeId id) {
  if (!NodeAliveNow(id)) return;
  // Cascade: end every live incident edge first.
  store_.ForEachEdge(id, graph::Direction::kBoth,
                     [&](EdgeId e, NodeId) {
                       RemoveEdge(e);
                       return true;
                     });
  node_intervals_[id].to = committed_;
}

void VersionStore::SnapshotPropsBeforeChange(uint32_t id, bool is_edge) {
  auto& history = is_edge ? edge_prop_history_[id] : node_prop_history_[id];
  if (history.empty()) {
    Version birth = is_edge ? edge_intervals_[id].from
                            : node_intervals_[id].from;
    const graph::PropertyMap& current =
        is_edge ? store_.EdgeProperties(id) : store_.NodeProperties(id);
    history.emplace_back(birth, current);
  }
  if (history.back().first != committed_) {
    history.emplace_back(committed_, history.back().second);
    if (node_prop_changes_.size() <= committed_) {
      node_prop_changes_.resize(committed_ + 1);
      edge_prop_changes_.resize(committed_ + 1);
    }
    if (is_edge) {
      edge_prop_changes_[committed_].push_back(id);
    } else {
      node_prop_changes_[committed_].push_back(id);
    }
  }
}

void VersionStore::SetNodeProperty(NodeId id, graph::KeyId key,
                                   graph::Value value) {
  if (!NodeAliveNow(id)) return;
  SnapshotPropsBeforeChange(id, /*is_edge=*/false);
  node_prop_history_[id].back().second.Set(key, value);
  store_.SetNodeProperty(id, key, value);
}

void VersionStore::SetEdgeProperty(EdgeId id, graph::KeyId key,
                                   graph::Value value) {
  if (!EdgeAliveNow(id)) return;
  SnapshotPropsBeforeChange(id, /*is_edge=*/true);
  edge_prop_history_[id].back().second.Set(key, value);
  store_.SetEdgeProperty(id, key, value);
}

Version VersionStore::CommitVersion() {
  Version version = committed_;
  uint64_t nodes = 0, edges = 0;
  for (const Interval& iv : node_intervals_) {
    if (iv.VisibleAt(version)) ++nodes;
  }
  for (const Interval& iv : edge_intervals_) {
    if (iv.VisibleAt(version)) ++edges;
  }
  counts_.emplace_back(nodes, edges);
  if (node_prop_changes_.size() <= version) {
    node_prop_changes_.resize(version + 1);
    edge_prop_changes_.resize(version + 1);
  }
  ++committed_;
  return version;
}

Result<std::unique_ptr<VersionView>> VersionStore::ViewAt(
    Version version) const {
  if (version >= committed_) {
    return Status::OutOfRange("version " + std::to_string(version) +
                              " not committed (have " +
                              std::to_string(committed_) + ")");
  }
  return std::make_unique<VersionView>(this, version);
}

Result<graph::SnapshotSizes> VersionStore::SaveVersion(
    Version version, const std::string& path,
    const graph::SnapshotOptions& options) const {
  FRAPPE_ASSIGN_OR_RETURN(std::unique_ptr<VersionView> view,
                          ViewAt(version));
  return graph::SaveSnapshot(*view, path, /*index=*/nullptr, options);
}

Result<std::unique_ptr<graph::GraphStore>> VersionStore::MaterializeVersion(
    Version version) const {
  if (version >= committed_) {
    return Status::OutOfRange("version " + std::to_string(version) +
                              " not committed (have " +
                              std::to_string(committed_) + ")");
  }
  auto out = std::make_unique<graph::GraphStore>();
  // Re-intern every vocabulary in id order. NameRegistry and StringPool
  // assign sequential ids, so in-order re-interning reproduces the exact
  // id mapping — which is what lets node/edge type ids, property key ids
  // and string-valued property payloads (StringRefs) copy over raw.
  const graph::GraphStore& src = store_;
  for (uint16_t i = 0; i < src.node_types().size(); ++i) {
    out->InternNodeType(src.node_types().Name(i));
  }
  for (uint16_t i = 0; i < src.edge_types().size(); ++i) {
    out->InternEdgeType(src.edge_types().Name(i));
  }
  for (uint16_t i = 0; i < src.keys().size(); ++i) {
    out->InternKey(src.keys().Name(i));
  }
  for (uint32_t i = 0; i < src.strings().size(); ++i) {
    out->InternString(src.strings().Resolve(graph::StringRef{i}));
  }
  // Entities in id order; dead-at-version slots become tombstones so the
  // id layout (including holes) matches the source exactly.
  for (NodeId id = 0; id < node_intervals_.size(); ++id) {
    if (!node_intervals_[id].VisibleAt(version)) {
      out->AddDeadNode();
      continue;
    }
    out->AddNode(src.NodeType(id));
    out->SetNodeProperties(id, PropsAt(/*is_edge=*/false, id, version));
  }
  for (EdgeId id = 0; id < edge_intervals_.size(); ++id) {
    if (!edge_intervals_[id].VisibleAt(version)) {
      out->AddDeadEdge();
      continue;
    }
    graph::Edge e = src.GetEdge(id);
    if (out->AddEdge(e.src, e.dst, e.type) == graph::kInvalidEdge) {
      return Status::Internal(
          "materialize: edge " + std::to_string(id) +
          " visible at version " + std::to_string(version) +
          " but an endpoint is not");
    }
    out->SetEdgeProperties(id, PropsAt(/*is_edge=*/true, id, version));
  }
  return out;
}

const graph::PropertyMap& VersionStore::PropsAt(bool is_edge, uint32_t id,
                                                Version version) const {
  const auto& histories = is_edge ? edge_prop_history_ : node_prop_history_;
  auto it = histories.find(id);
  if (it != histories.end() && !it->second.empty()) {
    const PropHistory& history = it->second;
    // Last entry with since <= version.
    auto entry = std::upper_bound(
        history.begin(), history.end(), version,
        [](Version v, const std::pair<Version, graph::PropertyMap>& e) {
          return v < e.first;
        });
    if (entry != history.begin()) {
      return std::prev(entry)->second;
    }
    // Version precedes the first snapshot — cannot happen for live
    // entities (first snapshot is taken at birth), fall through.
  }
  return is_edge ? store_.EdgeProperties(id) : store_.NodeProperties(id);
}

Result<VersionStore::Diff> VersionStore::ComputeDiff(Version from,
                                                     Version to) const {
  if (from >= committed_ || to >= committed_) {
    return Status::OutOfRange("diff versions must be committed");
  }
  Diff diff;
  for (NodeId id = 0; id < node_intervals_.size(); ++id) {
    bool before = node_intervals_[id].VisibleAt(from);
    bool after = node_intervals_[id].VisibleAt(to);
    if (!before && after) diff.added_nodes.push_back(id);
    if (before && !after) diff.removed_nodes.push_back(id);
  }
  for (EdgeId id = 0; id < edge_intervals_.size(); ++id) {
    bool before = edge_intervals_[id].VisibleAt(from);
    bool after = edge_intervals_[id].VisibleAt(to);
    if (!before && after) diff.added_edges.push_back(id);
    if (before && !after) diff.removed_edges.push_back(id);
  }
  // Property changes in eras (from, to], for nodes alive at both ends.
  if (to > from) {
    std::vector<NodeId> changed;
    for (Version v = from + 1; v <= to && v < node_prop_changes_.size();
         ++v) {
      for (NodeId id : node_prop_changes_[v]) {
        if (node_intervals_[id].VisibleAt(from) &&
            node_intervals_[id].VisibleAt(to)) {
          changed.push_back(id);
        }
      }
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    diff.property_changed_nodes = std::move(changed);
  }
  return diff;
}

uint64_t VersionStore::DeltaBytes() const {
  uint64_t bytes = store_.EstimateMemory().total();
  bytes += node_intervals_.size() * sizeof(Interval);
  bytes += edge_intervals_.size() * sizeof(Interval);
  for (const auto& [id, history] : node_prop_history_) {
    for (const auto& [version, props] : history) {
      bytes += sizeof(version) + props.byte_size() + 24;
    }
  }
  for (const auto& [id, history] : edge_prop_history_) {
    for (const auto& [version, props] : history) {
      bytes += sizeof(version) + props.byte_size() + 24;
    }
  }
  return bytes;
}

}  // namespace frappe::temporal
