#include "analysis/search.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/slicing.h"
#include "common/string_util.h"

namespace frappe::analysis {

using graph::NodeId;
using model::EdgeKind;
using model::NodeKind;

namespace {

// Files among the nodes reachable from `root` over `kinds` edges.
std::vector<NodeId> FilesUnder(const graph::GraphView& view,
                               const model::Schema& schema, NodeId root,
                               const std::vector<EdgeKind>& kinds) {
  std::vector<NodeId> files;
  for (NodeId node :
       ImpactSet(view, schema, {root}, kinds, graph::Direction::kOut)) {
    if (schema.node_kind(view.NodeType(node)) == NodeKind::kFile) {
      files.push_back(node);
    }
  }
  return files;
}

}  // namespace

std::vector<NodeId> ModuleFiles(const graph::GraphView& view,
                                const model::Schema& schema,
                                NodeId module) {
  return FilesUnder(view, schema, module,
                    {EdgeKind::kCompiledFrom, EdgeKind::kLinkedFrom,
                     EdgeKind::kLinkedFromLib});
}

std::vector<NodeId> DirectoryFiles(const graph::GraphView& view,
                                   const model::Schema& schema,
                                   NodeId directory) {
  return FilesUnder(view, schema, directory, {EdgeKind::kDirContains});
}

std::vector<SearchResult> CodeSearch(const graph::GraphView& view,
                                     const model::Schema& schema,
                                     const graph::NameIndex& index,
                                     const SearchQuery& query) {
  // Name lookup through the auto index.
  std::vector<NodeId> candidates;
  if (!query.name.empty() && query.name.back() == '~') {
    candidates = index.LookupFuzzy(
        "short_name", std::string_view(query.name).substr(
                          0, query.name.size() - 1), 2);
  } else if (HasWildcards(query.name)) {
    candidates = index.LookupWildcard("short_name", query.name);
  } else {
    candidates = index.Lookup("short_name", query.name);
  }

  // Scope filter: the set of files whose contents qualify.
  std::unordered_set<NodeId> allowed_files;
  bool scoped = false;
  if (query.module != graph::kInvalidNode) {
    scoped = true;
    for (NodeId f : ModuleFiles(view, schema, query.module)) {
      allowed_files.insert(f);
    }
  }
  if (query.directory != graph::kInvalidNode) {
    scoped = true;
    for (NodeId f : DirectoryFiles(view, schema, query.directory)) {
      allowed_files.insert(f);
    }
  }
  graph::TypeId file_contains =
      schema.edge_type(EdgeKind::kFileContains);

  std::vector<SearchResult> results;
  for (NodeId node : candidates) {
    if (results.size() >= query.limit) break;
    NodeKind kind = schema.node_kind(view.NodeType(node));
    if (query.kind != NodeKind::kCount && kind != query.kind) continue;
    if (query.group.has_value() && !model::InGroup(kind, *query.group)) {
      continue;
    }
    if (scoped) {
      bool in_scope = false;
      view.ForEachEdge(node, graph::Direction::kIn,
                       [&](graph::EdgeId e, NodeId from) {
                         if (view.GetEdge(e).type == file_contains &&
                             allowed_files.count(from) != 0) {
                           in_scope = true;
                           return false;
                         }
                         return true;
                       });
      if (!in_scope) continue;
    }
    SearchResult result;
    result.node = node;
    result.kind = kind;
    result.short_name = std::string(view.GetNodeString(
        node, schema.key(model::PropKey::kShortName)));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace frappe::analysis
