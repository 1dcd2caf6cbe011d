#include "query/database.h"

#include <string>

#include "common/string_util.h"

namespace frappe::query {

Database Database::Plain(const graph::GraphView& view,
                         const graph::NameIndex* name_index,
                         const graph::LabelIndex* label_index) {
  Database db;
  db.view = &view;
  db.name_index = name_index;
  db.label_index = label_index;
  db.resolve_label = [&view](std::string_view label) {
    std::vector<graph::TypeId> out;
    graph::TypeId id = view.node_types().Find(ToLower(label));
    if (id != 0xFFFF) out.push_back(id);
    return out;
  };
  db.resolve_edge_type =
      [&view](std::string_view name) -> std::optional<graph::TypeId> {
    graph::TypeId id = view.edge_types().Find(ToLower(name));
    if (id == 0xFFFF) return std::nullopt;
    return id;
  };
  db.resolve_property =
      [&view](std::string_view name) -> std::optional<graph::KeyId> {
    graph::KeyId id = view.keys().Find(ToLower(name));
    if (id == 0xFFFF) return std::nullopt;
    return id;
  };
  db.csr = view.PackedCache();
  db.stats = std::make_shared<graph::StatsCatalogCache>();
  return db;
}

}  // namespace frappe::query
