#include "graph/snapshot.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "common/crc32c.h"
#include "common/file_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frappe::graph {

namespace {

constexpr char kMagic[8] = {'F', 'R', 'A', 'P', 'P', 'E', 'D', 'B'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersion = 2;

// v2 header: magic + version + flags + section count.
constexpr size_t kV2HeaderSize = sizeof(kMagic) + 3 * sizeof(uint32_t);
// v2 trailer: u64 file size + u32 crc32c(header ++ size) + u32 magic.
constexpr size_t kV2TrailerSize = sizeof(uint64_t) + 2 * sizeof(uint32_t);
constexpr uint32_t kTrailerMagic = 0x54505246;  // "FRPT" little-endian
constexpr uint32_t kFlagChecksummed = 1u << 0;

// Defense in depth against absurd counts in corrupted headers (the header
// CRC should catch flips first, but only v2 has one).
constexpr uint32_t kMaxSections = 1024;
constexpr uint32_t kMaxIndexFields = 4096;

enum SectionId : uint32_t {
  kSectionSchema = 1,
  kSectionStrings = 2,
  kSectionNodes = 3,
  kSectionNodeProps = 4,
  kSectionEdges = 5,
  kSectionEdgeProps = 6,
  kSectionIndex = 7,
  kSectionStats = 8,
};

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionSchema: return "schema";
    case kSectionStrings: return "strings";
    case kSectionNodes: return "nodes";
    case kSectionNodeProps: return "node_props";
    case kSectionEdges: return "edges";
    case kSectionEdgeProps: return "edge_props";
    case kSectionIndex: return "index";
    case kSectionStats: return "stats";
    default: return "unknown";
  }
}

// Sentinel type id marking a tombstoned node/edge record.
constexpr uint16_t kDeadType = 0xFFFF;

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }
  void Raw(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }
  size_t offset() const { return out_->size(); }

 private:
  std::string* out_;
};

// Bounds-checked reader over one buffer. `base` is the buffer's absolute
// offset within the snapshot file, so error messages can report file
// offsets even when reading a v2 section payload.
class Reader {
 public:
  explicit Reader(std::string_view data, size_t base = 0)
      : data_(data), base_(base) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U16(uint16_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t len;
    if (!U32(&len) || len > data_.size() - pos_) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool Raw(void* out, size_t size) {
    if (size > data_.size() - pos_) return false;
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t pos() const { return pos_; }
  size_t AbsPos() const { return base_ + pos_; }
  void Seek(size_t pos) { pos_ = pos; }
  std::string_view data() const { return data_; }

 private:
  std::string_view data_;
  size_t base_ = 0;
  size_t pos_ = 0;
};

Status CorruptAt(const char* section, size_t abs_offset, std::string what) {
  return Status::Corruption("snapshot: section '" + std::string(section) +
                            "' " + std::move(what) + " at offset " +
                            std::to_string(abs_offset));
}

// ---------------------------------------------------------------------------
// Section payload writers (shared framing added by the caller).
// ---------------------------------------------------------------------------

void WriteRegistry(Writer* w, const NameRegistry& reg) {
  w->U32(static_cast<uint32_t>(reg.size()));
  for (uint16_t i = 0; i < reg.size(); ++i) w->Str(reg.Name(i));
}

void WriteProps(Writer* w, const PropertyMap& props) {
  w->U32(static_cast<uint32_t>(props.size()));
  for (const PropertyMap::Entry& e : props.entries()) {
    w->U16(e.key);
    w->U8(static_cast<uint8_t>(e.type));
    w->U64(e.payload);
  }
}

// v2 index payload: the field specs (with their own CRC, so a corrupted
// postings blob can still be rebuilt from node records) followed by the
// postings serialization.
void WriteIndexPayload(std::string* payload, const NameIndex& index) {
  Writer pw(payload);
  const std::vector<NameIndex::FieldSpec>& fields = index.fields();
  pw.U32(static_cast<uint32_t>(fields.size()));
  for (const NameIndex::FieldSpec& spec : fields) {
    pw.Str(spec.name);
    pw.U32(spec.key);
    pw.U8(spec.is_type_field ? 1 : 0);
  }
  pw.U32(common::Crc32c(payload->data(), payload->size()));
  std::string postings;
  index.Serialize(&postings);
  pw.Str(postings);
}

// ---------------------------------------------------------------------------
// Section payload parsers, shared between the v1 stream and v2 framed
// loaders. Everything is bounds-checked; corrupted values (unknown value
// types, dangling string refs, out-of-range type/key ids) are rejected
// rather than stored.
// ---------------------------------------------------------------------------

struct ParseState {
  GraphStore* store = nullptr;
  std::vector<NodeId> live_nodes;
  std::vector<EdgeId> live_edges;
};

bool ReadRegistryInto(Reader* r,
                      const std::function<uint16_t(std::string_view)>& intern) {
  uint32_t count;
  if (!r->U32(&count)) return false;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!r->Str(&name)) return false;
    intern(name);
  }
  return true;
}

Status ParseSchema(Reader* r, ParseState* st) {
  GraphStore& store = *st->store;
  bool ok = ReadRegistryInto(r, [&](std::string_view n) {
              return store.InternNodeType(n);
            }) &&
            ReadRegistryInto(r, [&](std::string_view n) {
              return store.InternEdgeType(n);
            }) &&
            ReadRegistryInto(
                r, [&](std::string_view n) { return store.InternKey(n); });
  if (!ok) return CorruptAt("schema", r->AbsPos(), "truncated");
  return Status::OK();
}

Status ParseStrings(Reader* r, ParseState* st) {
  uint32_t count;
  if (!r->U32(&count)) return CorruptAt("strings", r->AbsPos(), "truncated");
  for (uint32_t i = 0; i < count; ++i) {
    std::string str;
    if (!r->Str(&str)) return CorruptAt("strings", r->AbsPos(), "truncated");
    StringRef ref = st->store->InternString(str);
    if (ref.id != i) {
      return CorruptAt("strings", r->AbsPos(),
                       "duplicate interned string #" + std::to_string(i));
    }
  }
  return Status::OK();
}

Status ParseNodes(Reader* r, ParseState* st) {
  GraphStore& store = *st->store;
  uint32_t upper;
  if (!r->U32(&upper)) return CorruptAt("nodes", r->AbsPos(), "truncated");
  uint32_t type_count = static_cast<uint32_t>(store.node_types().size());
  for (uint32_t i = 0; i < upper; ++i) {
    uint16_t type;
    if (!r->U16(&type)) return CorruptAt("nodes", r->AbsPos(), "truncated");
    if (type == kDeadType) {
      store.AddDeadNode();
    } else if (type >= type_count) {
      return CorruptAt("nodes", r->AbsPos(),
                       "node type " + std::to_string(type) +
                           " outside registry (" +
                           std::to_string(type_count) + " types)");
    } else {
      st->live_nodes.push_back(store.AddNode(static_cast<TypeId>(type)));
    }
  }
  return Status::OK();
}

Status ReadProps(Reader* r, const char* section, const ParseState& st,
                 PropertyMap* props) {
  uint32_t count;
  if (!r->U32(&count)) return CorruptAt(section, r->AbsPos(), "truncated");
  uint32_t key_count = static_cast<uint32_t>(st.store->keys().size());
  uint32_t string_count = static_cast<uint32_t>(st.store->strings().size());
  for (uint32_t i = 0; i < count; ++i) {
    uint16_t key;
    uint8_t type;
    uint64_t payload;
    if (!r->U16(&key) || !r->U8(&type) || !r->U64(&payload)) {
      return CorruptAt(section, r->AbsPos(), "truncated property entry");
    }
    if (key >= key_count) {
      return CorruptAt(section, r->AbsPos(),
                       "property key " + std::to_string(key) +
                           " outside registry");
    }
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return CorruptAt(section, r->AbsPos(),
                       "unknown value type " + std::to_string(type));
    }
    if (static_cast<ValueType>(type) == ValueType::kString &&
        static_cast<uint32_t>(payload) >= string_count) {
      return CorruptAt(section, r->AbsPos(),
                       "dangling string ref " +
                           std::to_string(static_cast<uint32_t>(payload)));
    }
    props->Set(key, Value::FromRaw(static_cast<ValueType>(type), payload));
  }
  return Status::OK();
}

Status ParseNodeProps(Reader* r, ParseState* st) {
  for (NodeId id : st->live_nodes) {
    PropertyMap props;
    FRAPPE_RETURN_IF_ERROR(ReadProps(r, "node_props", *st, &props));
    st->store->SetNodeProperties(id, std::move(props));
  }
  return Status::OK();
}

Status ParseEdges(Reader* r, ParseState* st) {
  GraphStore& store = *st->store;
  uint32_t upper;
  if (!r->U32(&upper)) return CorruptAt("edges", r->AbsPos(), "truncated");
  uint32_t type_count = static_cast<uint32_t>(store.edge_types().size());
  for (uint32_t i = 0; i < upper; ++i) {
    uint16_t type;
    if (!r->U16(&type)) return CorruptAt("edges", r->AbsPos(), "truncated");
    if (type == kDeadType) {
      store.AddDeadEdge();
      continue;
    }
    if (type >= type_count) {
      return CorruptAt("edges", r->AbsPos(),
                       "edge type " + std::to_string(type) +
                           " outside registry");
    }
    uint32_t src, dst;
    if (!r->U32(&src) || !r->U32(&dst)) {
      return CorruptAt("edges", r->AbsPos(), "truncated");
    }
    EdgeId e = store.AddEdge(src, dst, static_cast<TypeId>(type));
    if (e == kInvalidEdge) {
      return CorruptAt("edges", r->AbsPos(),
                       "edge #" + std::to_string(i) +
                           " references missing node");
    }
    st->live_edges.push_back(e);
  }
  return Status::OK();
}

Status ParseEdgeProps(Reader* r, ParseState* st) {
  for (EdgeId id : st->live_edges) {
    PropertyMap props;
    FRAPPE_RETURN_IF_ERROR(ReadProps(r, "edge_props", *st, &props));
    st->store->SetEdgeProperties(id, std::move(props));
  }
  return Status::OK();
}

// Dispatches one section body (sans framing) to its parser.
Status ParseSectionBody(uint32_t section, Reader* r, ParseState* st) {
  switch (section) {
    case kSectionSchema: return ParseSchema(r, st);
    case kSectionStrings: return ParseStrings(r, st);
    case kSectionNodes: return ParseNodes(r, st);
    case kSectionNodeProps: return ParseNodeProps(r, st);
    case kSectionEdges: return ParseEdges(r, st);
    case kSectionEdgeProps: return ParseEdgeProps(r, st);
    default:
      return Status::Corruption("snapshot: unknown section " +
                                std::to_string(section) + " at offset " +
                                std::to_string(r->AbsPos()));
  }
}

// The v2 index section degrades instead of failing the load: if the
// payload survived its checksum, deserialize it; otherwise (or if
// deserialization fails with checksums off) rebuild from node records when
// the field specs are still intact, or drop the index with a warning.
void ParseIndexSectionV2(std::string_view payload, size_t abs_base,
                         bool payload_verified, const ParseState& st,
                         LoadedSnapshot* loaded) {
  Reader r(payload, abs_base);
  std::vector<NameIndex::FieldSpec> specs;
  uint32_t spec_count = 0;
  bool specs_ok = r.U32(&spec_count) && spec_count <= kMaxIndexFields;
  for (uint32_t i = 0; specs_ok && i < spec_count; ++i) {
    NameIndex::FieldSpec spec;
    uint32_t key = 0;
    uint8_t is_type = 0;
    specs_ok = r.Str(&spec.name) && r.U32(&key) && r.U8(&is_type);
    if (specs_ok) {
      spec.key = static_cast<KeyId>(key);
      spec.is_type_field = is_type != 0;
      specs.push_back(std::move(spec));
    }
  }
  size_t specs_end = r.pos();
  uint32_t stored_specs_crc = 0;
  specs_ok = specs_ok && r.U32(&stored_specs_crc) &&
             common::Crc32c(payload.data(), specs_end) == stored_specs_crc;

  if (payload_verified) {
    // A checksum-verified payload should always deserialize; with checksums
    // off (payload_verified is vacuously true) structural corruption can
    // still reach this point and falls through to the rebuild below. A
    // failed checksum must NOT reach the embedded postings: a content flip
    // inside a term can survive structural validation.
    size_t postings_pos = r.pos();
    std::string blob;
    if (r.Str(&blob) && r.AtEnd()) {
      auto idx = NameIndex::Deserialize(blob);
      if (idx.ok()) {
        loaded->index = std::move(*idx);
        return;
      }
    }
    r.Seek(postings_pos);
  }
  if (specs_ok) {
    loaded->index = NameIndex::Build(*st.store, std::move(specs));
    loaded->warnings.push_back(
        "snapshot: index section failed verification at offset " +
        std::to_string(abs_base) + "; rebuilt name index from node records");
    obs::Registry::Global().GetCounter("snapshot.load.index_rebuilds").Add();
  } else {
    loaded->warnings.push_back(
        "snapshot: index section failed verification at offset " +
        std::to_string(abs_base) +
        "; dropped embedded name index (field specs unrecoverable)");
    obs::Registry::Global().GetCounter("snapshot.load.index_drops").Add();
  }
  obs::LogWarn("snapshot", loaded->warnings.back());
}

// Nothing reads the stats section back: its CRC is verified and the
// payload skipped. A mismatch only warns — it never fails the load.
void SkipStatsSectionV2(size_t abs_base, bool payload_verified,
                        LoadedSnapshot* loaded) {
  if (payload_verified) return;
  loaded->warnings.push_back(
      "snapshot: stats section failed verification at offset " +
      std::to_string(abs_base) + "; skipped");
  obs::Registry::Global().GetCounter("snapshot.load.stats_drops").Add();
  obs::LogWarn("snapshot", loaded->warnings.back());
}

uint64_t SnapshotSizes::* SizeFieldFor(uint32_t section) {
  switch (section) {
    case kSectionSchema: return &SnapshotSizes::schema;
    case kSectionStrings: return &SnapshotSizes::strings;
    case kSectionNodes: return &SnapshotSizes::nodes;
    case kSectionNodeProps: return &SnapshotSizes::node_properties;
    case kSectionEdges: return &SnapshotSizes::relationships;
    case kSectionEdgeProps: return &SnapshotSizes::edge_properties;
    case kSectionIndex: return &SnapshotSizes::indexes;
    case kSectionStats: return &SnapshotSizes::stats;
    default: return nullptr;
  }
}

// ---------------------------------------------------------------------------
// v1 loader (no checksums, no trailer): kept for old snapshot files.
// ---------------------------------------------------------------------------

Result<LoadedSnapshot> DeserializeV1(std::string_view data, Reader r) {
  uint32_t section_count;
  if (!r.U32(&section_count) || section_count > kMaxSections) {
    return Status::Corruption("snapshot: truncated header");
  }

  LoadedSnapshot loaded;
  loaded.format_version = kVersionV1;
  loaded.sizes.header = r.pos();
  loaded.store = std::make_unique<GraphStore>();
  ParseState st;
  st.store = loaded.store.get();

  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t section;
    size_t start = r.pos();
    if (!r.U32(&section)) {
      return Status::Corruption("snapshot: truncated at offset " +
                                std::to_string(r.AbsPos()));
    }
    if (section == kSectionIndex) {
      std::string blob;
      if (!r.Str(&blob)) return CorruptAt("index", r.AbsPos(), "truncated");
      FRAPPE_ASSIGN_OR_RETURN(NameIndex idx, NameIndex::Deserialize(blob));
      loaded.index = std::move(idx);
    } else {
      FRAPPE_RETURN_IF_ERROR(ParseSectionBody(section, &r, &st));
    }
    if (auto field = SizeFieldFor(section)) {
      loaded.sizes.*field = r.pos() - start;
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("snapshot: trailing bytes at offset " +
                              std::to_string(r.AbsPos()) + " (file has " +
                              std::to_string(data.size()) + " bytes)");
  }
  return loaded;
}

// ---------------------------------------------------------------------------
// v2 loader: verifies the trailer, the header CRC, and every section CRC
// before (or while) parsing.
// ---------------------------------------------------------------------------

Result<LoadedSnapshot> DeserializeV2(std::string_view data) {
  using Clock = std::chrono::steady_clock;
  if (data.size() < kV2HeaderSize + kV2TrailerSize) {
    return Status::Corruption("snapshot: truncated (" +
                              std::to_string(data.size()) + " bytes)");
  }

  // Trailer first: catches truncation/extension before any parsing.
  const char* trailer = data.data() + data.size() - kV2TrailerSize;
  uint64_t stated_size;
  uint32_t trailer_crc, trailer_magic;
  std::memcpy(&stated_size, trailer, sizeof(stated_size));
  std::memcpy(&trailer_crc, trailer + 8, sizeof(trailer_crc));
  std::memcpy(&trailer_magic, trailer + 12, sizeof(trailer_magic));
  if (trailer_magic != kTrailerMagic) {
    return Status::Corruption(
        "snapshot: missing trailer magic (truncated or corrupted tail)");
  }
  if (stated_size != data.size()) {
    return Status::Corruption("snapshot: trailer length mismatch (trailer "
                              "says " + std::to_string(stated_size) +
                              ", file has " + std::to_string(data.size()) +
                              " bytes)");
  }
  Clock::time_point t_header = Clock::now();
  uint32_t header_crc = common::Crc32cExtend(
      common::Crc32c(data.data(), kV2HeaderSize), trailer,
      sizeof(stated_size));
  uint64_t verify_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            t_header)
          .count());
  if (header_crc != trailer_crc) {
    return Status::Corruption("snapshot: header checksum mismatch (stored " +
                              std::to_string(trailer_crc) + ", computed " +
                              std::to_string(header_crc) + ")");
  }

  Reader r(data);
  r.Seek(sizeof(kMagic) + sizeof(uint32_t));  // past magic + version
  uint32_t flags, section_count;
  r.U32(&flags);
  r.U32(&section_count);
  if (section_count > kMaxSections) {
    return Status::Corruption("snapshot: implausible section count " +
                              std::to_string(section_count));
  }
  const bool checksummed = (flags & kFlagChecksummed) != 0;

  LoadedSnapshot loaded;
  loaded.format_version = kVersion;
  loaded.sizes.header = kV2HeaderSize;
  loaded.sizes.trailer = kV2TrailerSize;
  loaded.store = std::make_unique<GraphStore>();
  ParseState st;
  st.store = loaded.store.get();

  const size_t body_end = data.size() - kV2TrailerSize;
  constexpr size_t kFrameOverhead = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  std::array<bool, 9> seen{};
  uint32_t prev_section = 0;

  for (uint32_t s = 0; s < section_count; ++s) {
    size_t frame_start = r.pos();
    uint32_t section;
    uint64_t payload_len;
    if (frame_start + kFrameOverhead > body_end || !r.U32(&section) ||
        !r.U64(&payload_len)) {
      return Status::Corruption("snapshot: truncated section header at "
                                "offset " + std::to_string(frame_start));
    }
    const char* name = SectionName(section);
    if (section <= prev_section || section >= seen.size()) {
      return Status::Corruption(
          "snapshot: section '" + std::string(name) + "' out of order at "
          "offset " + std::to_string(frame_start));
    }
    prev_section = section;
    seen[section] = true;
    if (payload_len > body_end - r.pos() ||
        body_end - r.pos() - payload_len < sizeof(uint32_t)) {
      return CorruptAt(name, frame_start,
                       "length " + std::to_string(payload_len) +
                           " overruns file");
    }
    size_t payload_off = r.pos();
    std::string_view payload = data.substr(payload_off, payload_len);
    r.Seek(payload_off + payload_len);
    uint32_t stored_crc;
    r.U32(&stored_crc);

    bool payload_verified = !checksummed;
    if (checksummed) {
      Clock::time_point t0 = Clock::now();
      uint32_t actual = common::Crc32c(payload.data(), payload.size());
      verify_us += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - t0)
              .count());
      payload_verified = actual == stored_crc;
      if (!payload_verified && section != kSectionIndex &&
          section != kSectionStats) {
        return CorruptAt(name, payload_off,
                         "checksum mismatch (stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(actual) + ")");
      }
    }

    if (section == kSectionIndex) {
      ParseIndexSectionV2(payload, payload_off, payload_verified, st,
                          &loaded);
    } else if (section == kSectionStats) {
      SkipStatsSectionV2(payload_off, payload_verified, &loaded);
    } else {
      Reader sub(payload, payload_off);
      FRAPPE_RETURN_IF_ERROR(ParseSectionBody(section, &sub, &st));
      if (!sub.AtEnd()) {
        return CorruptAt(name, sub.AbsPos(),
                         std::to_string(payload.size() - sub.pos()) +
                             " trailing bytes");
      }
    }
    if (auto field = SizeFieldFor(section)) {
      loaded.sizes.*field = kFrameOverhead + payload_len;
    }
  }
  if (r.pos() != body_end) {
    return Status::Corruption("snapshot: trailing bytes after last section "
                              "at offset " + std::to_string(r.pos()));
  }
  for (uint32_t id = kSectionSchema; id <= kSectionEdgeProps; ++id) {
    if (!seen[id]) {
      return Status::Corruption("snapshot: missing section '" +
                                std::string(SectionName(id)) + "'");
    }
  }
  if (checksummed) {
    obs::Registry::Global()
        .GetHistogram("snapshot.checksum_verify_us")
        .Record(verify_us);
  }
  return loaded;
}

}  // namespace

Result<SnapshotSizes> SerializeSnapshot(const GraphView& view,
                                        std::string* out,
                                        const NameIndex* index,
                                        const SnapshotOptions& options) {
  FRAPPE_TRACE_SPAN("snapshot.serialize");
  SnapshotSizes sizes;
  Writer w(out);
  const size_t base = out->size();
  const uint32_t flags = options.checksums ? kFlagChecksummed : 0;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kVersion);
  w.U32(flags);
  uint32_t section_count = 6u + (index != nullptr ? 1u : 0u) +
                           (options.catalog != nullptr ? 1u : 0u);
  w.U32(section_count);
  sizes.header = w.offset() - base;

  std::string payload;
  auto emit = [&](uint32_t id) {
    size_t start = w.offset();
    w.U32(id);
    w.U64(payload.size());
    w.Raw(payload.data(), payload.size());
    w.U32(options.checksums ? common::Crc32c(payload.data(), payload.size())
                            : 0);
    return static_cast<uint64_t>(w.offset() - start);
  };

  // Schema: node types, edge types, keys.
  {
    payload.clear();
    Writer pw(&payload);
    WriteRegistry(&pw, view.node_types());
    WriteRegistry(&pw, view.edge_types());
    WriteRegistry(&pw, view.keys());
    sizes.schema = emit(kSectionSchema);
  }
  // Strings, ordered by id so refs survive a round trip.
  {
    payload.clear();
    Writer pw(&payload);
    const StringPool& pool = view.strings();
    pw.U32(static_cast<uint32_t>(pool.size()));
    for (uint32_t i = 0; i < pool.size(); ++i) {
      pw.Str(pool.Resolve(StringRef{i}));
    }
    sizes.strings = emit(kSectionStrings);
  }
  // Node records (type per id slot; tombstones keep the id space intact).
  {
    payload.clear();
    Writer pw(&payload);
    pw.U32(view.NodeIdUpperBound());
    for (NodeId id = 0; id < view.NodeIdUpperBound(); ++id) {
      pw.U16(view.NodeExists(id) ? view.NodeType(id) : kDeadType);
    }
    sizes.nodes = emit(kSectionNodes);
  }
  // Node properties (live nodes only; id-ordered).
  {
    payload.clear();
    Writer pw(&payload);
    for (NodeId id = 0; id < view.NodeIdUpperBound(); ++id) {
      if (view.NodeExists(id)) WriteProps(&pw, view.NodeProperties(id));
    }
    sizes.node_properties = emit(kSectionNodeProps);
  }
  // Edge records.
  {
    payload.clear();
    Writer pw(&payload);
    pw.U32(view.EdgeIdUpperBound());
    for (EdgeId id = 0; id < view.EdgeIdUpperBound(); ++id) {
      if (view.EdgeExists(id)) {
        Edge e = view.GetEdge(id);
        pw.U16(e.type);
        pw.U32(e.src);
        pw.U32(e.dst);
      } else {
        pw.U16(kDeadType);
      }
    }
    sizes.relationships = emit(kSectionEdges);
  }
  // Edge properties.
  {
    payload.clear();
    Writer pw(&payload);
    for (EdgeId id = 0; id < view.EdgeIdUpperBound(); ++id) {
      if (view.EdgeExists(id)) WriteProps(&pw, view.EdgeProperties(id));
    }
    sizes.edge_properties = emit(kSectionEdgeProps);
  }
  // Optional embedded name index.
  if (index != nullptr) {
    payload.clear();
    WriteIndexPayload(&payload, *index);
    sizes.indexes = emit(kSectionIndex);
  }
  // Optional cardinality stats catalog (written, never read back).
  if (options.catalog != nullptr) {
    payload.clear();
    options.catalog->Serialize(&payload);
    sizes.stats = emit(kSectionStats);
  }

  // Trailer: total size + CRC over header and size field. The CRC is
  // written even with checksums off — it protects the flags field itself.
  {
    uint64_t total = (w.offset() - base) + kV2TrailerSize;
    w.U64(total);
    uint32_t crc = common::Crc32cExtend(
        common::Crc32c(out->data() + base, kV2HeaderSize),
        out->data() + out->size() - sizeof(uint64_t), sizeof(uint64_t));
    w.U32(crc);
    w.U32(kTrailerMagic);
    sizes.trailer = kV2TrailerSize;
  }
  return sizes;
}

Result<SnapshotSizes> SaveSnapshot(const GraphView& view,
                                   const std::string& path,
                                   const NameIndex* index,
                                   const SnapshotOptions& options) {
  FRAPPE_TRACE_SPAN("snapshot.save");
  obs::Registry& reg = obs::Registry::Global();
  std::string buffer;
  auto sizes = SerializeSnapshot(view, &buffer, index, options);
  if (!sizes.ok()) {
    reg.GetCounter("snapshot.save.failures").Add();
    return sizes.status();
  }
  Status s = common::AtomicWriteFile(path, buffer, "snapshot");
  if (!s.ok()) {
    reg.GetCounter("snapshot.save.failures").Add();
    return s;
  }
  reg.GetCounter("snapshot.save.count").Add();
  return sizes;
}

Result<LoadedSnapshot> DeserializeSnapshot(std::string_view data) {
  FRAPPE_TRACE_SPAN("snapshot.deserialize");
  Reader r(data);
  char magic[8];
  uint32_t version;
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("snapshot: bad magic");
  }
  if (!r.U32(&version)) return Status::Corruption("snapshot: truncated");
  if (version == kVersionV1) return DeserializeV1(data, r);
  if (version == kVersion) return DeserializeV2(data);
  return Status::Corruption("snapshot: unsupported version " +
                            std::to_string(version));
}

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  FRAPPE_TRACE_SPAN("snapshot.load");
  obs::Registry& reg = obs::Registry::Global();
  std::string data;
  Status s = common::ReadFile(path, &data, "snapshot");
  if (!s.ok()) {
    reg.GetCounter("snapshot.load.failures").Add();
    return s;
  }
  auto loaded = DeserializeSnapshot(data);
  if (!loaded.ok()) {
    reg.GetCounter("snapshot.load.failures").Add();
    return loaded.status();
  }
  reg.GetCounter("snapshot.load.count").Add();
  return loaded;
}

}  // namespace frappe::graph
