#ifndef FRAPPE_GRAPH_SNAPSHOT_H_
#define FRAPPE_GRAPH_SNAPSHOT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph_store.h"
#include "graph/indexes.h"
#include "graph/stats_catalog.h"

namespace frappe::graph {

// On-disk snapshot format (v2, written by SerializeSnapshot):
//
//   header    magic "FRAPPEDB" | u32 version=2 | u32 flags | u32 sections
//   section*  u32 id | u64 payload_len | payload | u32 crc32c(payload)
//   trailer   u64 file_size | u32 crc32c(header + size) | u32 "FRPT"
//
// flags bit 0 = section payloads are checksummed (always set unless
// SnapshotOptions::checksums is cleared for benchmarking). The trailer
// detects truncation/extension immediately, and its CRC covers the header
// so a bit flip there (including in `flags`) cannot go unnoticed.
//
// v1 snapshots (no checksums, no trailer) still load; new files are always
// written as v2. Any truncation or corruption surfaces as
// Status::Corruption naming the section and byte offset — except a
// corrupted embedded name-index section, which degrades gracefully: the
// index is rebuilt from the (checksum-verified) node records and the load
// succeeds with a warning.

// Byte counts of the on-disk snapshot by logical section, matching the
// paper's Table 4 storage breakdown (Properties / Nodes / Relationships /
// Indexes). Section sizes include the v2 framing (id, length, CRC).
struct SnapshotSizes {
  uint64_t header = 0;         // magic + version + flags + section count
  uint64_t schema = 0;         // registries (labels, edge types, keys)
  uint64_t strings = 0;        // interned string payloads (counted under
                               // properties in Table 4 terms)
  uint64_t nodes = 0;          // fixed node records
  uint64_t relationships = 0;  // fixed edge records
  uint64_t node_properties = 0;
  uint64_t edge_properties = 0;
  uint64_t indexes = 0;
  uint64_t stats = 0;          // cardinality stats catalog (skipped on load)
  uint64_t trailer = 0;        // length/CRC trailer (v2 only)

  uint64_t properties() const {
    return node_properties + edge_properties + strings;
  }
  uint64_t total() const {
    return header + schema + strings + nodes + relationships +
           node_properties + edge_properties + indexes + stats + trailer;
  }
};

struct SnapshotOptions {
  // Write per-section CRC32C checksums (and verify them on load). Turning
  // this off exists so bench_snapshot_io can price the checksum work; real
  // deployments should never clear it.
  bool checksums = true;
  // Optional cardinality stats catalog to embed as its own section (the
  // pointer is only read during Save/Serialize). Loading verifies the
  // section's CRC and skips it: no reader is left.
  const StatsCatalog* catalog = nullptr;
};

// Writes `view` (and optionally a prebuilt name index) to `path` as a
// single-file binary snapshot. The write is crash-safe: data goes to
// `<path>.tmp.<pid>`, is fsynced, and is renamed over `path` (parent
// directory fsynced), so a crash at any point leaves either the old or the
// new snapshot — never a torn one. Returns the per-section sizes.
Result<SnapshotSizes> SaveSnapshot(const GraphView& view,
                                   const std::string& path,
                                   const NameIndex* index = nullptr,
                                   const SnapshotOptions& options = {});

// In-memory variant (used by tests and the temporal store). Appends to
// `*out`, which should be empty.
Result<SnapshotSizes> SerializeSnapshot(const GraphView& view,
                                        std::string* out,
                                        const NameIndex* index = nullptr,
                                        const SnapshotOptions& options = {});

struct LoadedSnapshot {
  std::unique_ptr<GraphStore> store;
  std::optional<NameIndex> index;  // present if the snapshot embedded one
  SnapshotSizes sizes;
  uint32_t format_version = 0;  // 1 or 2
  // Non-fatal degradations, e.g. "index section checksum mismatch ...;
  // rebuilt name index from node records".
  std::vector<std::string> warnings;
};

Result<LoadedSnapshot> LoadSnapshot(const std::string& path);
Result<LoadedSnapshot> DeserializeSnapshot(std::string_view data);

}  // namespace frappe::graph

#endif  // FRAPPE_GRAPH_SNAPSHOT_H_
