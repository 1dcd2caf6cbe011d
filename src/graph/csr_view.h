#ifndef FRAPPE_GRAPH_CSR_VIEW_H_
#define FRAPPE_GRAPH_CSR_VIEW_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "graph/graph_view.h"

namespace frappe::graph {

// The strongly connected components of a CsrView's edges of some types,
// and the DAG between them: the condensation. Unbounded directed
// reachability reads component ids instead of walking cycles, so a probe
// that would exhaust a giant cycle's closure is decided in O(1), and a
// closure walks DAG edges instead of graph edges. Built by
// analytics::Condense and cached on the CsrView it condenses.
struct Condensation {
  // Sorted, distinct edge types the components follow; empty: every type.
  std::vector<TypeId> types;
  // Component id per NodeId, in Tarjan's completion order, which is
  // reverse-topological: a DAG edge c1 -> c2 has c1 > c2, so the id doubles
  // as the rank. Ids with no live node are singleton components.
  std::vector<uint32_t> component;
  // Per component: 1 when each member reaches itself over >= 1 edges (more
  // than one member, or a self-loop of a matching type).
  std::vector<uint8_t> cyclic;
  // Members of component c, ascending:
  // members[member_offsets[c] .. member_offsets[c + 1]).
  std::vector<uint64_t> member_offsets;
  std::vector<NodeId> members;
  // The DAG in CSR form. Successors of c, descending, at
  // out[out_offsets[c] ..); predecessors, ascending, at in[in_offsets[c] ..).
  std::vector<uint64_t> out_offsets;
  std::vector<uint32_t> out;
  std::vector<uint64_t> in_offsets;
  std::vector<uint32_t> in;

  size_t ComponentCount() const { return cyclic.size(); }
  uint64_t ByteSize() const;
};

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
//     the first traversal that actually scans in-edges — an explicit
//     `<-` match or an undirected sweep. Forward-only workloads skip its build time
//     and memory entirely. The build is thread-safe (std::call_once) and
//     its cost/bytes are queryable for /debug/storagez.
//
// The view borrows the base view for types, properties and strings;
// topology reads (ForEachEdge, degrees) hit the packed arrays. Each view's
// own copy is GraphView::Packed(); Build() makes a free-standing one.
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
  std::span<const PropertyMap::Entry> NodeProperties(
      NodeId id) const override {
    return base_->NodeProperties(id);
  }
  std::span<const PropertyMap::Entry> EdgeProperties(
      EdgeId id) const override {
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
  // walking the forward CSR in source order).
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

  // Type sets one view keeps a condensation for. Each is O(nodes) and the
  // sets come from query text, so the first few to be asked for hold the
  // slots until the next topology change; other sets are answered without
  // one.
  static constexpr size_t kMaxCondensations = 4;

  // The condensation under the sorted, distinct `types` (empty: every
  // type), or nullptr while none is built. Never waits for a build.
  const Condensation* FindCondensation(const std::vector<TypeId>& types) const;
  // As FindCondensation, but `build` makes the missing one. Each type set
  // builds under its own lock: concurrent first callers of one set build
  // it once, and lookups and builds of other sets do not wait for it. A
  // failed build caches nothing and its status is returned. Returns
  // nullptr, building nothing, when kMaxCondensations other sets hold the
  // slots. Use analytics::Condense, which supplies the builder.
  using CondensationBuilder = std::function<Result<Condensation>()>;
  Result<const Condensation*> Condensed(
      const std::vector<TypeId>& types,
      const CondensationBuilder& build) const;
  // Resident bytes of every condensation built so far.
  uint64_t CondensationByteSize() const;

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

  // One slot per type set asked for, at most kMaxCondensations. `mu`
  // guards the slot list and is never held across a build.
  struct Condensations {
    struct Slot {
      std::vector<TypeId> types;
      std::mutex build_mu;  // held while this set builds
      std::unique_ptr<const Condensation> owned;
      std::atomic<const Condensation*> built{nullptr};  // set once owned is
    };
    std::mutex mu;
    std::vector<std::unique_ptr<Slot>> slots;
  };

  CsrView()
      : reverse_(std::make_unique<ReverseCsr>()),
        condensations_(std::make_unique<Condensations>()) {}

  void EnsureReverse() const;

  const GraphView* base_ = nullptr;
  std::vector<Edge> edges_;  // indexed by EdgeId (dead edges zeroed)
  std::vector<uint64_t> out_offsets_;  // size = nodes + 1
  std::vector<EdgeId> out_edges_;
  std::vector<NodeId> out_targets_;
  std::vector<TypeId> out_types_;
  std::unique_ptr<ReverseCsr> reverse_;
  std::unique_ptr<Condensations> condensations_;
};

// Thread-safe lazy CsrView cache: the one packed adjacency of its owner
// view, behind GraphView::Packed() and shared as query::Database::csr, so
// the executor's fast paths, the analysis API and the benchmarks read the
// same copy. Builds on first use and rebuilds when the owner's
// TopologyVersion() has moved since the build. Get() with any other base
// returns that base's own Packed() and leaves this cache's view alone,
// since other readers may still hold it.
class CsrCache {
 public:
  explicit CsrCache(const GraphView* owner) : owner_(owner) {}

  const CsrView& Get(const GraphView& base);
  void Invalidate();

  // Storage accounting for /debug/storagez: bytes of the cached view's
  // forward and reverse sections and condensations (0 when absent / not yet
  // built) and the reverse transpose's lazy build time.
  struct Stats {
    uint64_t forward_bytes = 0;
    uint64_t reverse_bytes = 0;
    uint64_t condensation_bytes = 0;
    double reverse_build_ms = 0.0;
  };
  Stats GetStats() const;

 private:
  mutable std::mutex mu_;
  const GraphView* const owner_;
  std::unique_ptr<CsrView> view_;
  uint64_t version_ = 0;  // owner's TopologyVersion() at the build
};

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_CSR_VIEW_H_
