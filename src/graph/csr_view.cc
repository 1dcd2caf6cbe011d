#include "graph/csr_view.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace frappe::graph {

CsrView CsrView::Build(const GraphView& base) {
  CsrView view;
  view.base_ = &base;
  size_t node_upper = base.NodeIdUpperBound();
  size_t edge_upper = base.EdgeIdUpperBound();

  view.edges_.assign(edge_upper, Edge{});
  std::vector<uint32_t> out_counts(node_upper, 0);
  for (EdgeId e = 0; e < edge_upper; ++e) {
    if (!base.EdgeExists(e)) continue;
    Edge edge = base.GetEdge(e);
    view.edges_[e] = edge;
    ++out_counts[edge.src];
  }

  view.out_offsets_.assign(node_upper + 1, 0);
  for (size_t n = 0; n < node_upper; ++n) {
    view.out_offsets_[n + 1] = view.out_offsets_[n] + out_counts[n];
  }
  size_t live_edges = view.out_offsets_[node_upper];
  view.out_edges_.resize(live_edges);
  view.out_targets_.resize(live_edges);
  view.out_types_.resize(live_edges);

  std::vector<uint64_t> out_cursor(view.out_offsets_.begin(),
                                   view.out_offsets_.end() - 1);
  for (EdgeId e = 0; e < edge_upper; ++e) {
    if (!base.EdgeExists(e)) continue;
    const Edge& edge = view.edges_[e];
    uint64_t out_pos = out_cursor[edge.src]++;
    view.out_edges_[out_pos] = e;
    view.out_targets_[out_pos] = edge.dst;
    view.out_types_[out_pos] = edge.type;
  }
  return view;
}

void CsrView::EnsureReverse() const {
  ReverseCsr& rev = *reverse_;
  if (rev.built.load(std::memory_order_acquire)) return;
  std::call_once(rev.once, [&] {
    FRAPPE_TRACE_SPAN("csr.build_reverse");
    auto start = std::chrono::steady_clock::now();
    size_t node_upper = out_offsets_.size() - 1;
    std::vector<uint32_t> in_counts(node_upper, 0);
    for (NodeId dst : out_targets_) ++in_counts[dst];
    rev.offsets.assign(node_upper + 1, 0);
    for (size_t n = 0; n < node_upper; ++n) {
      rev.offsets[n + 1] = rev.offsets[n] + in_counts[n];
    }
    size_t live_edges = out_edges_.size();
    rev.edges.resize(live_edges);
    rev.sources.resize(live_edges);
    rev.types.resize(live_edges);
    std::vector<uint64_t> cursor(rev.offsets.begin(), rev.offsets.end() - 1);
    // Walking the forward CSR in ascending source order leaves every
    // destination bucket sorted by source id.
    for (NodeId src = 0; src < node_upper; ++src) {
      for (uint64_t pos = out_offsets_[src]; pos < out_offsets_[src + 1];
           ++pos) {
        NodeId dst = out_targets_[pos];
        uint64_t in_pos = cursor[dst]++;
        rev.edges[in_pos] = out_edges_[pos];
        rev.sources[in_pos] = src;
        rev.types[in_pos] = out_types_[pos];
      }
    }
    rev.build_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    static obs::Histogram& build_hist =
        obs::Registry::Global().GetHistogram("csr.reverse_build_ms");
    build_hist.Record(static_cast<uint64_t>(rev.build_ms));
    rev.built.store(true, std::memory_order_release);
  });
}

void CsrView::ForEachEdge(NodeId id, Direction dir,
                          const EdgeVisitor& fn) const {
  if (id + 1 >= out_offsets_.size() || !base_->NodeExists(id)) return;
  if (dir == Direction::kOut || dir == Direction::kBoth) {
    Neighbors out = Out(id);
    for (size_t i = 0; i < out.count; ++i) {
      if (!fn(out.begin_edges[i], out.begin_nodes[i])) return;
    }
  }
  if (dir == Direction::kIn || dir == Direction::kBoth) {
    Neighbors in = In(id);
    for (size_t i = 0; i < in.count; ++i) {
      // Self-loops were reported in the out pass already.
      if (dir == Direction::kBoth && in.begin_nodes[i] == id) continue;
      if (!fn(in.begin_edges[i], in.begin_nodes[i])) return;
    }
  }
}

uint64_t CsrView::ForwardByteSize() const {
  return edges_.size() * sizeof(Edge) +
         out_offsets_.size() * sizeof(uint64_t) +
         out_edges_.size() * sizeof(EdgeId) +
         out_targets_.size() * sizeof(NodeId) +
         out_types_.size() * sizeof(TypeId);
}

uint64_t CsrView::ReverseByteSize() const {
  if (!ReverseBuilt()) return 0;
  const ReverseCsr& rev = *reverse_;
  return rev.offsets.size() * sizeof(uint64_t) +
         rev.edges.size() * sizeof(EdgeId) +
         rev.sources.size() * sizeof(NodeId) +
         rev.types.size() * sizeof(TypeId);
}

const Condensation* CsrView::FindCondensation(
    const std::vector<TypeId>& types) const {
  Condensations& set = *condensations_;
  std::lock_guard<std::mutex> lock(set.mu);
  for (const auto& slot : set.slots) {
    if (slot->types == types) {
      return slot->built.load(std::memory_order_acquire);
    }
  }
  return nullptr;
}

Result<const Condensation*> CsrView::Condensed(
    const std::vector<TypeId>& types, const CondensationBuilder& build) const {
  Condensations& set = *condensations_;
  Condensations::Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(set.mu);
    for (const auto& candidate : set.slots) {
      if (candidate->types == types) slot = candidate.get();
    }
    if (slot == nullptr) {
      if (set.slots.size() >= kMaxCondensations) return nullptr;
      slot = set.slots.emplace_back(
          std::make_unique<Condensations::Slot>()).get();
      slot->types = types;
    }
  }
  if (const Condensation* built =
          slot->built.load(std::memory_order_acquire)) {
    return built;
  }
  std::lock_guard<std::mutex> building(slot->build_mu);
  if (const Condensation* built =
          slot->built.load(std::memory_order_acquire)) {
    return built;  // another caller built it while this one waited
  }
  FRAPPE_ASSIGN_OR_RETURN(Condensation condensation, build());
  slot->owned = std::make_unique<const Condensation>(std::move(condensation));
  slot->built.store(slot->owned.get(), std::memory_order_release);
  return slot->owned.get();
}

uint64_t CsrView::CondensationByteSize() const {
  Condensations& set = *condensations_;
  std::lock_guard<std::mutex> lock(set.mu);
  uint64_t bytes = 0;
  for (const auto& slot : set.slots) {
    if (const Condensation* built =
            slot->built.load(std::memory_order_acquire)) {
      bytes += built->ByteSize();
    }
  }
  return bytes;
}

uint64_t Condensation::ByteSize() const {
  return types.size() * sizeof(TypeId) +
         component.size() * sizeof(uint32_t) + cyclic.size() +
         (member_offsets.size() + out_offsets.size() + in_offsets.size()) *
             sizeof(uint64_t) +
         members.size() * sizeof(NodeId) +
         (out.size() + in.size()) * sizeof(uint32_t);
}

const CsrView& CsrCache::Get(const GraphView& base) {
  if (&base != owner_) return base.Packed();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t version = base.TopologyVersion();
  if (view_ == nullptr || version_ != version) {
    view_ = std::make_unique<CsrView>(CsrView::Build(base));
    version_ = version;
  }
  return *view_;
}

void CsrCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  view_.reset();
}

CsrCache::Stats CsrCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  if (view_ != nullptr) {
    stats.forward_bytes = view_->ForwardByteSize();
    stats.reverse_bytes = view_->ReverseByteSize();
    stats.condensation_bytes = view_->CondensationByteSize();
    stats.reverse_build_ms = view_->ReverseBuildMs();
  }
  return stats;
}

GraphView::GraphView() : packed_(std::make_shared<CsrCache>(this)) {}

GraphView::GraphView(const GraphView& /*other*/)
    : packed_(std::make_shared<CsrCache>(this)) {}

GraphView& GraphView::operator=(const GraphView& /*other*/) {
  packed_->Invalidate();
  return *this;
}

GraphView::~GraphView() = default;

const CsrView& GraphView::Packed() const { return packed_->Get(*this); }

}  // namespace frappe::graph
