#ifndef FRAPPE_GRAPH_CSR_VIEW_H_
#define FRAPPE_GRAPH_CSR_VIEW_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph_view.h"

namespace frappe::graph {

// Read-optimized compressed-sparse-row snapshot of a GraphView. The
// mutable GraphStore keeps one heap-allocated adjacency vector per node
// per direction — flexible, but cache-hostile for whole-graph analytics.
// CsrView packs all adjacency into flat arrays (offsets + edge ids +
// target ids + edge types), the layout engines like PGX and LLAMA (paper
// Section 7) use for traversal-heavy workloads.
//
// Two refinements over a plain CSR:
//
//   * Edge types ride in a packed per-direction lane (`out_types_`,
//     `in_types_`) parallel to the target array, so a type-filtered scan
//     streams 2 bytes per edge sequentially instead of gathering 12-byte
//     Edge structs at random EdgeId offsets.
//
//   * The reverse CSR (the in-direction transpose) is built lazily, on
//     the first traversal that actually scans in-edges — the
//     direction-optimizing kernel's pull phase, an explicit `<-` match,
//     or an undirected sweep. Forward-only workloads skip its build time
//     and memory entirely. The build is thread-safe (std::call_once) and
//     its cost/bytes are queryable for /debug/storagez.
//
// The view borrows the base view for types, properties and strings;
// topology reads (ForEachEdge, degrees) hit the packed arrays. Build once
// after loading, then run closures/slices against it.
class CsrView final : public GraphView {
 public:
  // Materializes the forward adjacency of `base`. The base must outlive
  // the view. The reverse arrays materialize on first in-direction use.
  static CsrView Build(const GraphView& base);

  // --- GraphView ---
  const NameRegistry& node_types() const override {
    return base_->node_types();
  }
  const NameRegistry& edge_types() const override {
    return base_->edge_types();
  }
  const NameRegistry& keys() const override { return base_->keys(); }
  const StringPool& strings() const override { return base_->strings(); }

  size_t NodeCount() const override { return base_->NodeCount(); }
  size_t EdgeCount() const override { return base_->EdgeCount(); }
  NodeId NodeIdUpperBound() const override {
    return base_->NodeIdUpperBound();
  }
  EdgeId EdgeIdUpperBound() const override {
    return base_->EdgeIdUpperBound();
  }
  bool NodeExists(NodeId id) const override { return base_->NodeExists(id); }
  bool EdgeExists(EdgeId id) const override { return base_->EdgeExists(id); }

  TypeId NodeType(NodeId id) const override { return base_->NodeType(id); }
  Edge GetEdge(EdgeId id) const override {
    // Topology is answered from the packed copy (cache-friendly).
    return edges_[id];
  }
  Value GetNodeProperty(NodeId id, KeyId key) const override {
    return base_->GetNodeProperty(id, key);
  }
  Value GetEdgeProperty(EdgeId id, KeyId key) const override {
    return base_->GetEdgeProperty(id, key);
  }
  const PropertyMap& NodeProperties(NodeId id) const override {
    return base_->NodeProperties(id);
  }
  const PropertyMap& EdgeProperties(EdgeId id) const override {
    return base_->EdgeProperties(id);
  }

  void ForEachEdge(NodeId id, Direction dir,
                   const EdgeVisitor& fn) const override;

  size_t OutDegree(NodeId id) const override {
    return out_offsets_[id + 1] - out_offsets_[id];
  }
  size_t InDegree(NodeId id) const override {
    EnsureReverse();
    return reverse_->offsets[id + 1] - reverse_->offsets[id];
  }

  // Packed-array accessors for tight traversal loops. `begin_types[i]` is
  // the edge type of `begin_edges[i]` — read it instead of
  // GetEdge(begin_edges[i]).type in filtered scans.
  struct Neighbors {
    const EdgeId* begin_edges;
    const NodeId* begin_nodes;
    const TypeId* begin_types;
    size_t count;
  };

  // Packed bytes one edge scan touches (target id + type id): the unit the
  // analytics kernels use to convert step counts into scanned_bytes for
  // per-query resource attribution.
  static constexpr uint64_t kBytesPerEdgeScan =
      sizeof(NodeId) + sizeof(TypeId);
  Neighbors Out(NodeId id) const {
    size_t begin = out_offsets_[id];
    return {out_edges_.data() + begin, out_targets_.data() + begin,
            out_types_.data() + begin, out_offsets_[id + 1] - begin};
  }
  // Triggers the lazy reverse-CSR build on first use. Within each node's
  // bucket the sources are sorted ascending (the transpose is built by
  // walking the forward CSR in source order), which keeps the pull phase's
  // frontier-bitmap probes monotonic in memory.
  Neighbors In(NodeId id) const {
    EnsureReverse();
    size_t begin = reverse_->offsets[id];
    return {reverse_->edges.data() + begin,
            reverse_->sources.data() + begin,
            reverse_->types.data() + begin,
            reverse_->offsets[id + 1] - begin};
  }

  // Number of live (existing) edges in the packed arrays.
  size_t LiveEdgeCount() const { return out_edges_.size(); }
  // Live edges of one type (0 for types past the observed range). The
  // direction-optimizing kernel uses these to estimate a type filter's
  // selectivity: low-selectivity filters weaken the pull phase's
  // first-parent early exit, shifting the push/pull break-even point.
  uint64_t EdgeTypeCount(TypeId type) const {
    return type < type_counts_.size() ? type_counts_[type] : 0;
  }

  // Resident bytes of the packed arrays (forward + reverse-if-built).
  uint64_t ByteSize() const { return ForwardByteSize() + ReverseByteSize(); }
  uint64_t ForwardByteSize() const;
  // 0 until the reverse CSR has been materialized.
  uint64_t ReverseByteSize() const;
  bool ReverseBuilt() const {
    return reverse_->built.load(std::memory_order_acquire);
  }
  // Wall time the lazy transpose build took; 0.0 until built.
  double ReverseBuildMs() const {
    return ReverseBuilt() ? reverse_->build_ms : 0.0;
  }

 private:
  // Lazily-materialized transpose. Heap-allocated so CsrView stays movable
  // (std::once_flag is neither movable nor copyable).
  struct ReverseCsr {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<uint64_t> offsets;  // size = nodes + 1
    std::vector<EdgeId> edges;
    std::vector<NodeId> sources;
    std::vector<TypeId> types;
    double build_ms = 0.0;
  };

  CsrView() : reverse_(std::make_unique<ReverseCsr>()) {}

  void EnsureReverse() const;

  const GraphView* base_ = nullptr;
  std::vector<Edge> edges_;  // indexed by EdgeId (dead edges zeroed)
  std::vector<uint64_t> out_offsets_;  // size = nodes + 1
  std::vector<EdgeId> out_edges_;
  std::vector<NodeId> out_targets_;
  std::vector<TypeId> out_types_;
  std::vector<uint64_t> type_counts_;  // live edges per TypeId
  std::unique_ptr<ReverseCsr> reverse_;
};

// Thread-safe lazy CsrView cache: builds the packed adjacency on first use
// and hands out the same view afterwards, so repeated analytics queries
// (the executor's closure fast path, kernel slices) amortize the one-off
// build. Invalidate() after mutating the base graph; Get() with a
// different base also rebuilds.
class CsrCache {
 public:
  const CsrView& Get(const GraphView& base);
  void Invalidate();

  // Storage accounting for /debug/storagez: bytes of the cached view's
  // forward and reverse sections (0 when absent / not yet built) and the
  // reverse transpose's lazy build time.
  struct Stats {
    uint64_t forward_bytes = 0;
    uint64_t reverse_bytes = 0;
    double reverse_build_ms = 0.0;
  };
  Stats GetStats() const;

 private:
  mutable std::mutex mu_;
  std::unique_ptr<CsrView> view_;
  const GraphView* base_ = nullptr;
};

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_CSR_VIEW_H_
