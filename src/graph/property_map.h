#ifndef FRAPPE_GRAPH_PROPERTY_MAP_H_
#define FRAPPE_GRAPH_PROPERTY_MAP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ids.h"
#include "graph/value.h"

namespace frappe::graph {

// Sorted flat map from property key to value, packed to 16 bytes/entry.
// Nodes and edges typically carry 2-12 properties (paper Table 2), so a
// sorted vector beats any node-per-entry container in both memory and
// lookup cost.
//
// This is the mutable builder. Readers get a record's entries as a span
// (GraphView::NodeProperties/EdgeProperties) and look keys up with Find.
class PropertyMap {
 public:
  // Packed entry: key + value tag share one 8-byte word with padding, the
  // value payload fills the other.
  struct Entry {
    KeyId key;
    ValueType type;
    uint64_t payload;

    Value value() const { return Value::FromRaw(type, payload); }
    bool operator==(const Entry&) const = default;
  };

  PropertyMap() = default;
  // Copies entries already sorted by key, e.g. another record's span.
  explicit PropertyMap(std::span<const Entry> entries)
      : entries_(entries.begin(), entries.end()) {}

  // The value for `key` in `entries` (sorted by key), or a null Value when
  // absent. The one lookup behind Get and GraphView::Get*Property.
  static Value Find(std::span<const Entry> entries, KeyId key) {
    size_t i = LowerBound(entries, key);
    if (i < entries.size() && entries[i].key == key) {
      return entries[i].value();
    }
    return Value::Null();
  }

  // Sets `key` to `value`, replacing any existing entry. Setting a null
  // value removes the key (Cypher property semantics: null means absent).
  void Set(KeyId key, Value value) {
    auto it = entries_.begin() + LowerBound(entries_, key);
    if (value.is_null()) {
      if (it != entries_.end() && it->key == key) entries_.erase(it);
      return;
    }
    Entry e{key, value.type(), value.RawPayload()};
    if (it != entries_.end() && it->key == key) {
      *it = e;
    } else {
      entries_.insert(it, e);
    }
  }

  // Returns the value for `key`, or a null Value when absent.
  Value Get(KeyId key) const { return Find(entries_, key); }

  // Stored values are never null: Set with a null erases.
  bool Has(KeyId key) const { return !Get(key).is_null(); }

  void Erase(KeyId key) { Set(key, Value::Null()); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  std::span<const Entry> entries() const { return entries_; }

  // Approximate in-memory footprint of the payload (for Table 4 storage
  // accounting). Interned string payloads are accounted by the StringPool.
  uint64_t byte_size() const { return entries_.size() * sizeof(Entry); }

  bool operator==(const PropertyMap& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key != other.entries_[i].key ||
          !(entries_[i].value() == other.entries_[i].value())) {
        return false;
      }
    }
    return true;
  }

 private:
  // Index of the first entry whose key is not below `key`.
  static size_t LowerBound(std::span<const Entry> entries, KeyId key) {
    return std::lower_bound(
               entries.begin(), entries.end(), key,
               [](const Entry& e, KeyId k) { return e.key < k; }) -
           entries.begin();
  }

  std::vector<Entry> entries_;
};

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_PROPERTY_MAP_H_
