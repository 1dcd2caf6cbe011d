#include "graph/stats_catalog.h"

#include <map>
#include <unordered_map>

#include "obs/trace.h"

namespace frappe::graph {

namespace {

// Minimal length-prefixed writer for the catalog payload (the snapshot
// layer adds the CRC framing around it).
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }
  void Raw(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }

 private:
  std::string* out_;
};

void WriteBins(Writer* w, const std::vector<DegreeBin>& bins) {
  w->U32(static_cast<uint32_t>(bins.size()));
  for (const DegreeBin& b : bins) {
    w->U64(b.min_degree);
    w->U64(b.max_degree);
    w->U64(b.node_count);
  }
}

}  // namespace

uint64_t StatsCatalog::ByteSize() const {
  std::string tmp;
  Serialize(&tmp);
  return tmp.size();
}

void StatsCatalog::Serialize(std::string* out) const {
  Writer w(out);
  w.U32(kFormatVersion);
  w.U64(node_count);
  w.U64(edge_count);
  w.U32(static_cast<uint32_t>(node_types.size()));
  for (const NodeTypeStats& nt : node_types) {
    w.Str(nt.name);
    w.U64(nt.count);
  }
  w.U32(static_cast<uint32_t>(edge_types.size()));
  for (const EdgeTypeStats& et : edge_types) {
    w.Str(et.name);
    w.U64(et.count);
    w.U64(et.distinct_sources);
    w.U64(et.distinct_targets);
    WriteBins(&w, et.out_degrees);
    WriteBins(&w, et.in_degrees);
  }
  w.U32(static_cast<uint32_t>(hubs.size()));
  for (const HubNode& hub : hubs) {
    w.U32(hub.id);
    w.U64(hub.degree);
    w.Str(hub.short_name);
    w.Str(hub.type_name);
  }
  w.U32(static_cast<uint32_t>(index_fields.size()));
  for (const IndexFieldStats& f : index_fields) {
    w.Str(f.field);
    w.U64(f.distinct_terms);
    w.U64(f.postings);
  }
}

StatsCatalog BuildStatsCatalog(const GraphView& view,
                               const NameIndex* name_index,
                               size_t hub_count) {
  FRAPPE_TRACE_SPAN("stats.build_catalog");
  StatsCatalog cat;
  cat.node_count = view.NodeCount();
  cat.edge_count = view.EdgeCount();

  const NameRegistry& ntypes = view.node_types();
  cat.node_types.resize(ntypes.size());
  for (uint16_t t = 0; t < ntypes.size(); ++t) {
    cat.node_types[t].name = std::string(ntypes.Name(t));
  }
  view.ForEachNode([&](NodeId id) {
    TypeId t = view.NodeType(id);
    if (t < cat.node_types.size()) ++cat.node_types[t].count;
  });

  const NameRegistry& etypes = view.edge_types();
  cat.edge_types.resize(etypes.size());
  // One edge pass accumulating per-type per-endpoint degrees; the map size
  // per type *is* the distinct source/target count.
  std::vector<std::unordered_map<NodeId, uint64_t>> out_deg(etypes.size());
  std::vector<std::unordered_map<NodeId, uint64_t>> in_deg(etypes.size());
  view.ForEachEdgeGlobal([&](EdgeId id) {
    Edge e = view.GetEdge(id);
    if (e.type >= cat.edge_types.size()) return;
    ++cat.edge_types[e.type].count;
    ++out_deg[e.type][e.src];
    ++in_deg[e.type][e.dst];
  });
  for (uint16_t t = 0; t < etypes.size(); ++t) {
    StatsCatalog::EdgeTypeStats& et = cat.edge_types[t];
    et.name = std::string(etypes.Name(t));
    et.distinct_sources = out_deg[t].size();
    et.distinct_targets = in_deg[t].size();
    std::map<uint64_t, uint64_t> hist;
    for (const auto& [node, degree] : out_deg[t]) ++hist[degree];
    et.out_degrees = LogBinHistogram(hist);
    hist.clear();
    for (const auto& [node, degree] : in_deg[t]) ++hist[degree];
    et.in_degrees = LogBinHistogram(hist);
  }

  KeyId name_key = view.keys().Find("short_name");
  cat.hubs = TopDegreeNodes(view, hub_count, name_key);

  if (name_index != nullptr) {
    const std::vector<NameIndex::FieldSpec>& fields = name_index->fields();
    cat.index_fields.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      NameIndex::FieldStats fs = name_index->StatsForField(i);
      cat.index_fields.push_back(StatsCatalog::IndexFieldStats{
          fields[i].name, fs.distinct_terms, fs.postings});
    }
  }
  return cat;
}

}  // namespace frappe::graph
