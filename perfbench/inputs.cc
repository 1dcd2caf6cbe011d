#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common.h"
#include "common/rng.h"
#include "graph/analytics.h"
#include "graph/csr_view.h"
#include "graph/snapshot.h"
#include "model/code_graph.h"
#include "query/session.h"

namespace frappe::perfbench {

using graph::EdgeId;
using graph::NodeId;
using model::EdgeKind;
using model::NodeKind;
using model::PropKey;

std::string SearchQuery(const SearchInstance& i) {
  return "START m=node:node_auto_index('short_name: " + i.module +
         "') MATCH m -[:compiled_from|linked_from*]-> f WITH distinct f"
         " MATCH f -[:file_contains]-> (n:field{short_name: '" + i.field +
         "'}) RETURN n";
}

std::string XrefQuery(const XrefInstance& i) {
  return "START n=node:node_auto_index('short_name: " + i.callee +
         "') WHERE (n) <-[{NAME_FILE_ID: " + std::to_string(i.file) +
         ", NAME_START_LINE: " + std::to_string(i.line) +
         ", NAME_START_COLUMN: " + std::to_string(i.col) +
         "}]- () RETURN n";
}

std::string DebugQuery(const DebugInstance& i) {
  return "START from=node:node_auto_index('short_name: " + i.from +
         "'), to=node:node_auto_index('short_name: " + i.to +
         "'), b=node:node_auto_index('short_name: " + i.record +
         "') MATCH writer -[write:writes_member]-> ({SHORT_NAME:'" + i.field +
         "'}) <-[:contains]- b WITH to, from, writer, write"
         " MATCH direct <-[s:calls]- from -[r:calls{use_start_line: " +
         std::to_string(i.line) +
         "}]-> to WHERE r.use_start_line >= s.use_start_line AND"
         " direct -[:calls*]-> writer"
         " RETURN distinct writer, write.use_start_line";
}

std::string ClosureQuery(const ClosureInstance& i) {
  return "START n=node:node_auto_index('short_name: " + i.function +
         "') MATCH n -[:calls*]-> m RETURN distinct m";
}

std::string LookupQuery(const std::string& name) {
  return "START n=node:node_auto_index('short_name: " + name +
         "') RETURN n";
}

std::string GroupQuery(const std::string& name) {
  return "MATCH (n:container:symbol {short_name: '" + name + "'}) RETURN n";
}

graph::NodeId UniqueNode(const query::Database& db, const std::string& name) {
  std::vector<NodeId> hits = db.name_index->Lookup("short_name", name);
  return hits.size() == 1 ? hits[0] : graph::kInvalidNode;
}

DebugParts ResolveDebug(const graph::GraphView& view,
                        const model::Schema& schema,
                        const query::Database& db, const DebugInstance& d) {
  const graph::TypeId calls = schema.edge_type(EdgeKind::kCalls);
  const graph::TypeId contains = schema.edge_type(EdgeKind::kContains);
  const graph::TypeId writes = schema.edge_type(EdgeKind::kWritesMember);
  const graph::KeyId line = schema.key(PropKey::kUseStartLine);
  const graph::KeyId name = schema.key(PropKey::kShortName);
  DebugParts parts;
  parts.from = UniqueNode(db, d.from);
  parts.to = UniqueNode(db, d.to);
  parts.field = graph::kInvalidNode;
  view.ForEachEdge(parts.from, graph::Direction::kOut,
                   [&](EdgeId e, NodeId callee) {
                     if (view.GetEdge(e).type == calls &&
                         view.GetEdgeProperty(e, line).AsInt() <= d.line) {
                       parts.early_callees.push_back(callee);
                     }
                     return true;
                   });
  view.ForEachEdge(UniqueNode(db, d.record), graph::Direction::kOut,
                   [&](EdgeId e, NodeId member) {
                     if (view.GetEdge(e).type == contains &&
                         view.GetNodeString(member, name) == d.field) {
                       parts.field = member;
                     }
                     return true;
                   });
  if (parts.field != graph::kInvalidNode) {
    view.ForEachEdge(parts.field, graph::Direction::kIn,
                     [&](EdgeId e, NodeId writer) {
                       if (view.GetEdge(e).type == writes) {
                         parts.writers.push_back(writer);
                       }
                       return true;
                     });
  }
  return parts;
}

namespace {

std::string ScaleTag(double scale, uint64_t seed) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%.4f_seed%llu", scale,
                static_cast<unsigned long long>(seed));
  return buf;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

// Target probe work of a Fig. 5 instance, in scanned edges per edge of the
// graph: about the median over random call sites of the synthetic kernel.
constexpr double kDebugWorkPerEdge = 1.3;

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

// Picks seeded instances under the constraints of the Table 5 bench's
// ChooseInstances, with unique Fig. 5/6 START names so each lookup binds
// the one node the oracles resolve.
class Chooser {
 public:
  Chooser(const graph::GraphStore& store, const model::Schema& schema,
          const graph::NameIndex& index, uint64_t seed, bool unique_points)
      : unique_points_(unique_points),
        store_(store),
        schema_(schema),
        index_(index),
        labels_(graph::LabelIndex::Build(store)),
        csr_(graph::CsrView::Build(store)),
        rng_(seed ^ 0x5eedULL) {
    calls_ = schema_.edge_type(EdgeKind::kCalls);
    one_lane_.threads = 1;
  }

  Instances Choose(size_t per_class, size_t point_per_class) {
    Instances out;
    ChooseSearch(point_per_class, &out);
    ChooseCallSites(per_class, point_per_class, &out);
    ChooseClosures(per_class, &out);
    ChooseNamed(NodeKind::kFunction, point_per_class, &out.lookup);
    ChooseNamed(NodeKind::kStruct, point_per_class, &out.group);
    return out;
  }

 private:
  std::string Name(NodeId n) const {
    return std::string(
        store_.GetNodeString(n, schema_.key(PropKey::kShortName)));
  }
  bool Unique(NodeId n) const {
    return index_.Lookup("short_name", Name(n)).size() == 1;
  }
  // Point-query START names need not be unique where no oracle resolves
  // them to one node (the ingest tree repeats names across its parts).
  bool PointName(NodeId n) const { return !unique_points_ || Unique(n); }
  std::vector<NodeId> Shuffled(NodeKind kind) {
    std::vector<NodeId> nodes = labels_.Nodes(schema_.node_type(kind));
    Shuffle(&nodes, &rng_);
    return nodes;
  }
  size_t OutCalls(NodeId n) const {
    size_t count = 0;
    store_.ForEachEdge(n, graph::Direction::kOut, [&](EdgeId e, NodeId) {
      if (store_.GetEdge(e).type == calls_) ++count;
      return true;
    });
    return count;
  }
  int64_t EdgeInt(EdgeId e, PropKey key) const {
    return store_.GetEdgeProperty(e, schema_.key(key)).AsInt();
  }

  void ChooseSearch(size_t count, Instances* out) {
    graph::TypeId compiled_from = schema_.edge_type(EdgeKind::kCompiledFrom);
    graph::TypeId file_contains = schema_.edge_type(EdgeKind::kFileContains);
    graph::TypeId field_type = schema_.node_type(NodeKind::kField);
    for (NodeId m : Shuffled(NodeKind::kModule)) {
      if (out->search.size() >= count) break;
      if (!PointName(m)) continue;
      std::vector<NodeId> fields;
      store_.ForEachEdge(m, graph::Direction::kOut, [&](EdgeId e, NodeId f) {
        if (store_.GetEdge(e).type != compiled_from) return true;
        store_.ForEachEdge(f, graph::Direction::kOut,
                           [&](EdgeId e2, NodeId entity) {
                             if (store_.GetEdge(e2).type == file_contains &&
                                 store_.NodeType(entity) == field_type) {
                               fields.push_back(entity);
                             }
                             return true;
                           });
        return true;
      });
      if (fields.empty()) continue;
      out->search.push_back(
          {Name(m), Name(fields[rng_.Uniform(fields.size())])});
    }
  }

  // Fields written from 2..6 places with a uniquely named containing
  // record that holds no other field of the same name.
  std::vector<std::pair<NodeId, NodeId>> DebugFields(size_t count) {
    graph::TypeId writes = schema_.edge_type(EdgeKind::kWritesMember);
    graph::TypeId contains = schema_.edge_type(EdgeKind::kContains);
    std::vector<std::pair<NodeId, NodeId>> out;
    for (NodeId f : Shuffled(NodeKind::kField)) {
      if (out.size() >= count) break;
      int writers = 0;
      NodeId record = graph::kInvalidNode;
      store_.ForEachEdge(f, graph::Direction::kIn, [&](EdgeId e, NodeId src) {
        graph::TypeId t = store_.GetEdge(e).type;
        if (t == writes) ++writers;
        if (t == contains) record = src;
        return true;
      });
      if (writers < 2 || writers > 6 || record == graph::kInvalidNode ||
          !Unique(record)) {
        continue;
      }
      int same_name = 0;
      store_.ForEachEdge(record, graph::Direction::kOut,
                         [&](EdgeId e, NodeId member) {
                           if (store_.GetEdge(e).type == contains &&
                               Name(member) == Name(f)) {
                             ++same_name;
                           }
                           return true;
                         });
      if (same_name == 1) out.push_back({f, record});
    }
    return out;
  }

  void ChooseCallSites(size_t debug_count, size_t xref_count,
                       Instances* out) {
    std::vector<EdgeId> call_edges;
    for (EdgeId e = 0; e < store_.EdgeIdUpperBound(); ++e) {
      if (store_.EdgeExists(e) && store_.GetEdge(e).type == calls_) {
        call_edges.push_back(e);
      }
    }
    Shuffle(&call_edges, &rng_);
    // Fig. 5 candidates outnumber the instances kept five to one; the kept
    // ones are those whose probe work (DebugWork) is closest to a target.
    std::vector<std::pair<NodeId, NodeId>> fields =
        DebugFields(5 * debug_count);
    std::vector<std::pair<double, DebugInstance>> candidates;
    for (EdgeId e : call_edges) {
      if (out->xref.size() >= xref_count &&
          candidates.size() >= fields.size()) {
        break;
      }
      graph::Edge edge = store_.GetEdge(e);
      if (out->xref.size() < xref_count && PointName(edge.dst)) {
        out->xref.push_back({Name(edge.dst), EdgeInt(e, PropKey::kNameFileId),
                             EdgeInt(e, PropKey::kNameStartLine),
                             EdgeInt(e, PropKey::kNameStartCol)});
      }
      if (candidates.size() < fields.size() && Unique(edge.src) &&
          Unique(edge.dst)) {
        size_t out_calls = OutCalls(edge.src);
        if (out_calls < 3 || out_calls > 12) continue;
        auto [field, record] = fields[candidates.size()];
        double work = DebugWork(e, field);
        if (work == 0) continue;  // no call site before the bound
        candidates.push_back(
            {work, {Name(edge.src), Name(edge.dst), Name(record),
                    Name(field), EdgeInt(e, PropKey::kUseStartLine)}});
      }
    }
    // A fixed target relative to the graph's size, so every generator
    // seed's graph (see KernelGraphSeed) yields instances of one work level.
    const double target =
        kDebugWorkPerEdge * static_cast<double>(csr_.LiveEdgeCount());
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const auto& a, const auto& b) {
                       return std::abs(std::log(a.first / target)) <
                              std::abs(std::log(b.first / target));
                     });
    for (size_t i = 0; i < candidates.size() && i < debug_count; ++i) {
      out->debug.push_back(candidates[i].second);
    }
  }

  // Probe work of a Fig. 5 instance: for each row the exists() predicate
  // tests — an early call site other than the bounding call `bound`, times
  // a write of `field` — the work of a breadth-first reachability walk
  // from the callee to the writer (ReachWork). Instance latency spans two
  // orders of magnitude across call sites and follows this work closely;
  // keeping instances of one work level keeps the class's median
  // comparable across seeds.
  double DebugWork(EdgeId bound, NodeId field) {
    const graph::TypeId writes = schema_.edge_type(EdgeKind::kWritesMember);
    const int64_t line = EdgeInt(bound, PropKey::kUseStartLine);
    std::vector<NodeId> writers;
    store_.ForEachEdge(field, graph::Direction::kIn, [&](EdgeId e, NodeId w) {
      if (store_.GetEdge(e).type == writes) writers.push_back(w);
      return true;
    });
    double work = 0;
    store_.ForEachEdge(store_.GetEdge(bound).src, graph::Direction::kOut,
                       [&](EdgeId e, NodeId direct) {
                         if (e != bound && store_.GetEdge(e).type == calls_ &&
                             EdgeInt(e, PropKey::kUseStartLine) <= line) {
                           for (NodeId w : writers) {
                             work += ReachWork(direct, w);
                           }
                         }
                         return true;
                       });
    return work;
  }

  // Edges scanned by a first-in-first-out walk over outgoing calls from
  // `from` that stops when it discovers `to`, scanning every out-edge of
  // each node it expands (the cost of a walk over adjacency lists that
  // filters edge types as it goes). Computed on the packed adjacency,
  // which keeps each node's edges in the store's order.
  double ReachWork(NodeId from, NodeId to) {
    if (from == to) return 1;
    seen_.assign(csr_.NodeIdUpperBound(), 0);
    queue_.assign(1, from);
    seen_[from] = 1;
    double work = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      graph::CsrView::Neighbors out = csr_.Out(queue_[head]);
      for (size_t i = 0; i < out.count; ++i) {
        work += 1;
        if (out.begin_types[i] != calls_) continue;
        NodeId next = out.begin_nodes[i];
        if (seen_[next]) continue;
        if (next == to) return work;
        seen_[next] = 1;
        queue_.push_back(next);
      }
    }
    return work;
  }

  // Fig. 6 seeds: functions with at least two outgoing calls whose closure
  // reaches the bulk of the call graph — the paper's blow-up case. Seeds
  // with tiny closures would make the class's latency a lottery over
  // seeds.
  void ChooseClosures(size_t count, Instances* out) {
    const size_t functions =
        labels_.Nodes(schema_.node_type(NodeKind::kFunction)).size();
    for (NodeId fn : Shuffled(NodeKind::kFunction)) {
      if (out->closure.size() >= count) break;
      if (OutCalls(fn) < 2 || !Unique(fn)) continue;
      auto closure = engine_.Closure(
          csr_, {fn}, graph::EdgeFilter::Of({calls_}), one_lane_);
      if (!closure.ok() || closure->size() * 4 < functions) continue;
      out->closure.push_back({Name(fn)});
    }
  }

  void ChooseNamed(NodeKind kind, size_t count,
                   std::vector<std::string>* out) {
    for (NodeId n : Shuffled(kind)) {
      if (out->size() >= count) break;
      if (PointName(n)) out->push_back(Name(n));
    }
  }

  const bool unique_points_;
  const graph::GraphStore& store_;
  const model::Schema& schema_;
  const graph::NameIndex& index_;
  graph::LabelIndex labels_;
  graph::CsrView csr_;
  graph::analytics::FrontierEngine engine_;
  graph::analytics::Options one_lane_;
  std::vector<uint8_t> seen_;  // ReachWork scratch
  std::vector<NodeId> queue_;
  Rng rng_;
  graph::TypeId calls_;
};

void WriteInstances(const Instances& in, std::ostream& out) {
  for (const auto& i : in.search) out << "S\t" << i.module << "\t" << i.field
                                      << "\n";
  for (const auto& i : in.xref) {
    out << "X\t" << i.callee << "\t" << i.file << "\t" << i.line << "\t"
        << i.col << "\n";
  }
  for (const auto& i : in.debug) {
    out << "D\t" << i.from << "\t" << i.to << "\t" << i.record << "\t"
        << i.field << "\t" << i.line << "\n";
  }
  for (const auto& i : in.closure) out << "C\t" << i.function << "\n";
  for (const auto& n : in.lookup) out << "L\t" << n << "\n";
  for (const auto& n : in.group) out << "G\t" << n << "\n";
}

bool ReadInstances(const std::string& path, Instances* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string part;
    while (std::getline(ss, part, '\t')) f.push_back(part);
    if (f.empty()) continue;
    const std::string& k = f[0];
    if (k == "S" && f.size() == 3) {
      out->search.push_back({f[1], f[2]});
    } else if (k == "X" && f.size() == 5) {
      out->xref.push_back({f[1], std::stoll(f[2]), std::stoll(f[3]),
                           std::stoll(f[4])});
    } else if (k == "D" && f.size() == 6) {
      out->debug.push_back({f[1], f[2], f[3], f[4], std::stoll(f[5])});
    } else if (k == "C" && f.size() == 2) {
      out->closure.push_back({f[1]});
    } else if (k == "L" && f.size() == 2) {
      out->lookup.push_back(f[1]);
    } else if (k == "G" && f.size() == 2) {
      out->group.push_back(f[1]);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

Instances ChooseInstances(const graph::GraphStore& store,
                          const model::Schema& schema,
                          const graph::NameIndex& index, uint64_t seed,
                          size_t per_class, size_t point_per_class,
                          bool unique_points) {
  return Chooser(store, schema, index, seed, unique_points)
      .Choose(per_class, point_per_class);
}

uint64_t KernelGraphSeed(uint64_t seed) { return 42 + seed / 1000; }

bool EnsureKernel(const std::string& cache_dir, double scale, uint64_t seed,
                  KernelInput* out) {
  out->snapshot_path = cache_dir + "/kernel_" +
                       ScaleTag(scale, KernelGraphSeed(seed)) + ".fsnap";
  const std::string instances_path =
      cache_dir + "/instances_" + ScaleTag(scale, seed) + ".inst";
  if (FileExists(instances_path) && FileExists(out->snapshot_path)) {
    return ReadInstances(instances_path, &out->instances);
  }
  Clock::time_point start = Clock::now();
  Instances chosen;
  if (!FileExists(out->snapshot_path)) {
    model::CodeGraph graph(model::CodeGraph::Validation::kOff);
    extractor::GraphScale graph_scale;
    graph_scale.factor = scale;
    graph_scale.seed = KernelGraphSeed(seed);
    extractor::GenerateKernelGraph(graph_scale, &graph);
    graph::NameIndex index = graph.BuildNameIndex();
    auto saved = graph::SaveSnapshot(graph.view(), out->snapshot_path, &index);
    if (!saved.ok()) {
      std::fprintf(stderr, "perfbench: save %s: %s\n",
                   out->snapshot_path.c_str(),
                   saved.status().ToString().c_str());
      return false;
    }
    chosen = ChooseInstances(graph.store(), graph.schema(), index, seed, 16,
                             64, true);
  } else {
    auto session = query::SnapshotSession::Open(out->snapshot_path);
    if (!session.ok()) return false;
    chosen = ChooseInstances((*session)->store(), (*session)->schema(),
                             (*session)->name_index(), seed, 16, 64, true);
  }
  const std::string tmp = instances_path + ".tmp";
  {
    std::ofstream file(tmp);
    WriteInstances(chosen, file);
    if (!file) return false;
  }
  if (std::rename(tmp.c_str(), instances_path.c_str()) != 0) return false;
  Note("inputs.kernel_prepared_s", Fmt(MsSince(start) / 1000.0));
  return ReadInstances(instances_path, &out->instances);
}

bool EnsureSourceTree(const std::string& cache_dir, double scale,
                      uint64_t seed, SourceInput* out) {
  const std::string path = cache_dir + "/source_" + ScaleTag(scale, seed) +
                           ".tree";
  if (!FileExists(path)) {
    // The tree is kSourceParts independently seeded generator trees side
    // by side (each under its own top directory): one generated tree's
    // extraction cost varies by ~12% with its seed, and summing parts
    // averages that out, so cycle times stay comparable across seeds.
    constexpr int kSourceParts = 6;
    extractor::Vfs vfs;
    extractor::SourceKernel kernel;
    for (int part = 0; part < kSourceParts; ++part) {
      extractor::SourceScale source;
      source.seed = seed * 1000 + static_cast<uint64_t>(part);
      source.subsystems = std::max(
          1, static_cast<int>(60 * scale / kSourceParts + 0.5));
      source.files_per_subsystem = 10;
      source.functions_per_file = 12;
      source.structs_per_subsystem = 6;
      source.globals_per_subsystem = 8;
      extractor::Vfs part_vfs;
      extractor::SourceKernel generated =
          extractor::GenerateKernelSource(source, &part_vfs);
      const std::string prefix = "part" + std::to_string(part) + "/";
      for (const std::string& f : part_vfs.Files()) {
        vfs.AddFile(prefix + f, std::string(*part_vfs.Read(f)));
      }
      // Re-root every path operand: sources, objects, outputs, -I dirs.
      for (const std::string& command : generated.build_commands) {
        std::istringstream words(command);
        std::string word, rewritten;
        while (words >> word) {
          if (!rewritten.empty()) rewritten += " ";
          if (word.rfind("-I", 0) == 0) {
            rewritten += "-I" + prefix + word.substr(2);
          } else if (word == "gcc" || word[0] == '-') {
            rewritten += word;
          } else {
            rewritten += prefix + word;
          }
        }
        kernel.build_commands.push_back(rewritten);
      }
    }
    kernel.total_lines = vfs.TotalLines();
    const std::string tmp = path + ".tmp";
    {
      std::ofstream file(tmp, std::ios::binary);
      file << kernel.total_lines << "\n" << kernel.build_commands.size()
           << "\n";
      for (const std::string& c : kernel.build_commands) file << c << "\n";
      for (const std::string& f : vfs.Files()) {
        std::string_view content = *vfs.Read(f);
        file << f << "\n" << content.size() << "\n" << content;
      }
      if (!file) return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) return false;
  }
  std::ifstream file(path, std::ios::binary);
  size_t commands = 0;
  file >> out->total_lines >> commands;
  file.ignore(1);
  for (size_t i = 0; i < commands; ++i) {
    std::string c;
    std::getline(file, c);
    out->build_commands.push_back(c);
  }
  std::string name;
  while (std::getline(file, name)) {
    size_t size = 0;
    file >> size;
    file.ignore(1);
    std::string content(size, '\0');
    file.read(content.data(), static_cast<std::streamsize>(size));
    if (!file) return false;
    out->vfs.AddFile(name, std::move(content));
  }
  return !out->build_commands.empty();
}

}  // namespace frappe::perfbench
