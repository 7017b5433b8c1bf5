#include "lina/snap/store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "lina/names/interner.hpp"
#include "lina/net/crc32.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"
#include "lina/snap/io.hpp"

namespace lina::snap {

namespace {

using net::put_u16;
using net::put_u32;
using net::put_u64;
using net::put_u8;
using net::put_varint;
using routing::FibEntry;
using routing::Port;

constexpr std::uint16_t kManifestVersion = 1;

void validate_table_name(const std::string& table) {
  const auto ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
  };
  if (table.empty() || table.front() == '.' ||
      !std::all_of(table.begin(), table.end(), ok)) {
    throw SnapFormatError("invalid snapshot table name '" + table +
                          "' (want [A-Za-z0-9_.-]+, not starting with '.')");
  }
}

// --- file image assembly --------------------------------------------------

struct Image {
  std::vector<char> bytes;
  std::vector<SectionRecord> records;
};

/// Lays out header | section table | toc CRC | payloads | footer.
Image build_image(
    SnapHeader header,
    std::vector<std::pair<SectionId, std::vector<char>>> sections) {
  header.section_count = static_cast<std::uint16_t>(sections.size());
  const std::uint64_t payload_start =
      kSnapHeaderBytes + sections.size() * kSectionRecordBytes + 4;
  Image image;
  std::uint64_t offset = payload_start;
  for (const auto& [id, payload] : sections) {
    SectionRecord rec;
    rec.id = id;
    rec.offset = offset;
    rec.bytes = payload.size();
    rec.crc = net::crc32(0, payload.data(), payload.size());
    image.records.push_back(rec);
    offset += payload.size();
  }
  std::vector<char>& out = image.bytes;
  out.reserve(offset + kSnapFooterBytes);
  encode_header(out, header);
  for (const SectionRecord& rec : image.records) {
    put_u32(out, static_cast<std::uint32_t>(rec.id));
    put_u64(out, rec.offset);
    put_u64(out, rec.bytes);
    put_u32(out, rec.crc);
  }
  put_u32(out, net::crc32(0, out.data(), out.size()));
  for (const auto& [id, payload] : sections) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  const std::uint32_t file_crc = net::crc32(0, out.data(), out.size());
  net::put_footer(out, kSnapFooterMagic, file_crc,
                  out.size() + kSnapFooterBytes);
  return image;
}

// --- file validation ------------------------------------------------------

struct Parsed {
  SnapHeader header;
  std::vector<SectionRecord> sections;
};

/// Validates everything outside the payload encodings: header, footer
/// magic/size, table-of-contents CRC, section bounds, per-section CRCs,
/// and finally the whole-file CRC. Per-section checks run before the
/// whole-file one so a localized flip is reported against its section.
Parsed parse_snapshot(const net::MappedFile& file, const std::string& ctx) {
  const char* data = file.data();
  const std::uint64_t size = file.size();
  const std::uint32_t file_crc = net::decode_footer<SnapFormatError>(
      data, size, kSnapHeaderBytes, kSnapFooterMagic, ctx);
  Parsed parsed;
  parsed.header = decode_header(data, size, ctx);

  const std::uint64_t toc_end =
      kSnapHeaderBytes +
      std::uint64_t{parsed.header.section_count} * kSectionRecordBytes;
  const std::string toc_ctx = ctx + " section table";
  ByteCursor toc(data + kSnapHeaderBytes, toc_end - kSnapHeaderBytes + 4,
                 toc_ctx);
  for (std::uint16_t i = 0; i < parsed.header.section_count; ++i) {
    SectionRecord rec;
    rec.id = static_cast<SectionId>(toc.u32());
    rec.offset = toc.u64();
    rec.bytes = toc.u64();
    rec.crc = toc.u32();
    parsed.sections.push_back(rec);
  }
  if (net::crc32(0, data, toc_end) != toc.u32()) {
    throw SnapFormatError(ctx + ": section-table CRC mismatch");
  }

  const std::uint64_t payload_end = size - kSnapFooterBytes;
  for (const SectionRecord& rec : parsed.sections) {
    const std::string name =
        "section " + std::to_string(static_cast<std::uint32_t>(rec.id));
    if (rec.offset < toc_end + 4 || rec.offset > payload_end ||
        rec.bytes > payload_end - rec.offset) {
      throw SnapFormatError(ctx + ": " + name +
                            " extends past the payload area (truncated?)");
    }
    if (net::crc32(0, data + rec.offset, rec.bytes) != rec.crc) {
      throw SnapFormatError(ctx + ": " + name +
                            " CRC mismatch (bit rot or torn write)");
    }
  }
  if (net::crc32(0, data, payload_end) != file_crc) {
    throw SnapFormatError(ctx + ": whole-file CRC mismatch");
  }
  return parsed;
}

[[nodiscard]] std::pair<const char*, std::uint64_t> section(
    const net::MappedFile& file, const Parsed& parsed, SectionId id,
    const std::string& ctx) {
  for (const SectionRecord& rec : parsed.sections) {
    if (rec.id == id) return {file.data() + rec.offset, rec.bytes};
  }
  throw SnapFormatError(ctx + ": required section " +
                        std::to_string(static_cast<std::uint32_t>(id)) +
                        " missing");
}

// --- IP FIB codec ---------------------------------------------------------

using IpTrie = net::FrozenIpTrie<FibEntry>;

/// Bit-packs the preorder node array. Freeze invariants carry the
/// compression: child0 is implicitly self+1 (1 flag bit), value slots are
/// preorder-dense (1 flag bit), keys store only their top `len` bits, and
/// child1 is a varint delta past self. The writer re-verifies each
/// invariant so a layout drift becomes a loud error, not a bad file.
std::vector<std::pair<SectionId, std::vector<char>>> encode_ip(
    const IpTrie& trie) {
  BitWriter packed;
  std::uint32_t next_slot = 0;
  const std::span<const IpTrie::Node> nodes = trie.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const IpTrie::Node& n = nodes[i];
    const std::string at = "ip snapshot: node " + std::to_string(i);
    if (n.len > 32 || (n.key & ~net::prefix_mask(n.len)) != 0) {
      throw SnapFormatError(at + " has a non-canonical key");
    }
    const bool has_value = n.value_slot != IpTrie::kNil;
    const bool has0 = n.child0 != IpTrie::kNil;
    const bool has1 = n.child1 != IpTrie::kNil;
    if (has0 && n.child0 != i + 1) {
      throw SnapFormatError(at + " breaks the preorder child0 invariant");
    }
    if (has1 && n.child1 <= i) {
      throw SnapFormatError(at + " breaks the preorder child1 invariant");
    }
    if (has_value && n.value_slot != next_slot) {
      throw SnapFormatError(at + " breaks the dense value-slot invariant");
    }
    packed.bits(n.len, 6);
    if (n.len > 0) packed.bits(n.key >> (32u - n.len), n.len);
    packed.bit(has_value);
    packed.bit(has0);
    packed.bit(has1);
    if (has1) packed.varint(n.child1 - i - 1);
    if (has_value) ++next_slot;
  }
  std::vector<char> values;
  for (const FibEntry& e : trie.values()) {
    put_varint(values, e.port);
    put_u8(values, static_cast<std::uint8_t>(e.route_class));
    put_varint(values, e.path_length);
    put_varint(values, e.med);
  }
  std::vector<std::pair<SectionId, std::vector<char>>> sections;
  sections.emplace_back(SectionId::kIpNodes, packed.finish());
  sections.emplace_back(SectionId::kIpValues, std::move(values));
  return sections;
}

IpTrie decode_ip(const net::MappedFile& file, const Parsed& parsed,
                 const std::string& ctx) {
  const std::uint64_t node_count = parsed.header.node_count;
  const auto [ndata, nbytes] =
      section(file, parsed, SectionId::kIpNodes, ctx);
  // Every node costs at least 9 bits, so an absurd count cannot pass.
  if (node_count > nbytes * 8 / 9 + 1) {
    throw SnapFormatError(ctx + ": node count " + std::to_string(node_count) +
                          " exceeds what the node section can hold");
  }
  BitReader reader(ndata, nbytes, ctx + " ip-nodes");
  std::vector<IpTrie::Node> nodes;
  nodes.reserve(node_count);
  std::vector<net::Prefix> prefixes;
  std::uint32_t next_slot = 0;
  for (std::uint64_t i = 0; i < node_count; ++i) {
    IpTrie::Node n;
    const std::uint32_t len = reader.bits(6);
    if (len > 32) {
      throw SnapFormatError(ctx + ": node " + std::to_string(i) +
                            " has prefix length " + std::to_string(len));
    }
    n.len = static_cast<std::uint8_t>(len);
    n.key = len == 0 ? 0 : reader.bits(len) << (32u - len);
    const bool has_value = reader.bit();
    const bool has0 = reader.bit();
    const bool has1 = reader.bit();
    if (has0) {
      if (i + 1 >= node_count) {
        throw SnapFormatError(ctx + ": node " + std::to_string(i) +
                              " child0 out of range");
      }
      n.child0 = static_cast<std::uint32_t>(i + 1);
    }
    if (has1) {
      const std::uint64_t child = i + 1 + reader.varint();
      if (child >= node_count) {
        throw SnapFormatError(ctx + ": node " + std::to_string(i) +
                              " child1 out of range");
      }
      n.child1 = static_cast<std::uint32_t>(child);
    }
    if (has_value) {
      n.value_slot = next_slot++;
      prefixes.emplace_back(net::Ipv4Address(n.key), n.len);
    }
    nodes.push_back(n);
  }
  if (next_slot != parsed.header.entry_count) {
    throw SnapFormatError(
        ctx + ": header promises " +
        std::to_string(parsed.header.entry_count) + " entries but nodes carry " +
        std::to_string(next_slot));
  }
  const auto [vdata, vbytes] =
      section(file, parsed, SectionId::kIpValues, ctx);
  const std::string values_ctx = ctx + " ip-values";
  ByteCursor cursor(vdata, vbytes, values_ctx);
  std::vector<FibEntry> values;
  values.reserve(next_slot);
  for (std::uint32_t i = 0; i < next_slot; ++i) {
    FibEntry e;
    const std::uint64_t port = cursor.varint();
    const std::uint8_t cls = cursor.u8();
    const std::uint64_t path_length = cursor.varint();
    const std::uint64_t med = cursor.varint();
    if (port > 0xffffffffull || path_length > 0xffffffffull ||
        med > 0xffffffffull || cls > 2) {
      throw SnapFormatError(ctx + ": entry " + std::to_string(i) +
                            " has out-of-range fields");
    }
    e.port = static_cast<Port>(port);
    e.route_class = static_cast<routing::RouteClass>(cls);
    e.path_length = static_cast<std::uint32_t>(path_length);
    e.med = static_cast<std::uint32_t>(med);
    values.push_back(e);
  }
  if (!cursor.done()) {
    throw SnapFormatError(ctx + ": trailing bytes after the last entry");
  }
  return IpTrie(std::move(nodes), std::move(values), std::move(prefixes));
}

// --- name FIB codec -------------------------------------------------------

using NameTrie = names::NameTrie<Port>;

/// Serializes spellings (not interner ids): ids are process-local and
/// assignment-order dependent, so the snapshot carries the component
/// strings sorted by spelling — byte-deterministic — and the loader
/// re-interns them and rebuilds the edge keys against the live interner.
std::vector<std::pair<SectionId, std::vector<char>>> encode_name(
    const NameTrie& trie) {
  // Labels are global ids here and local ids once remapped below.
  std::vector<NameTrie::Edge> edges;
  edges.reserve(trie.live_nodes() - 1);
  trie.for_each_edge([&](const NameTrie::Edge& e) { edges.push_back(e); });

  const names::ComponentInterner& interner =
      names::ComponentInterner::global();
  std::vector<std::uint32_t> globals;
  globals.reserve(edges.size());
  for (const NameTrie::Edge& e : edges) globals.push_back(e.label);
  std::sort(globals.begin(), globals.end());
  globals.erase(std::unique(globals.begin(), globals.end()), globals.end());
  std::sort(globals.begin(), globals.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return interner.spelling(a) < interner.spelling(b);
            });
  std::unordered_map<std::uint32_t, std::uint32_t> local;
  local.reserve(globals.size());
  for (std::uint32_t i = 0; i < globals.size(); ++i) local[globals[i]] = i;

  std::vector<char> components;
  put_varint(components, globals.size());
  for (const std::uint32_t g : globals) {
    const std::string_view spelling = interner.spelling(g);
    put_varint(components, spelling.size());
    components.insert(components.end(), spelling.begin(), spelling.end());
  }

  for (NameTrie::Edge& e : edges) e.label = local.at(e.label);
  std::sort(edges.begin(), edges.end(),
            [](const NameTrie::Edge& a, const NameTrie::Edge& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.label < b.label;
            });
  std::vector<char> packed_edges;
  put_varint(packed_edges, edges.size());
  std::uint32_t prev_parent = 0;
  for (const NameTrie::Edge& e : edges) {
    put_varint(packed_edges, e.parent - prev_parent);
    put_varint(packed_edges, e.label);
    put_varint(packed_edges, e.child);
    prev_parent = e.parent;
  }

  BitWriter packed_values;
  for (std::size_t slot = 0; slot < trie.live_nodes(); ++slot) {
    const std::optional<Port>& v = trie.slot_value(slot);
    packed_values.bit(v.has_value());
    if (v.has_value()) packed_values.varint(*v);
  }

  std::vector<std::pair<SectionId, std::vector<char>>> sections;
  sections.emplace_back(SectionId::kComponents, std::move(components));
  sections.emplace_back(SectionId::kNameEdges, std::move(packed_edges));
  sections.emplace_back(SectionId::kNameValues, packed_values.finish());
  return sections;
}

NameTrie decode_name(const net::MappedFile& file, const Parsed& parsed,
                     const std::string& ctx) {
  const std::uint64_t node_count = parsed.header.node_count;

  const auto [cdata, cbytes] =
      section(file, parsed, SectionId::kComponents, ctx);
  const std::string comps_ctx = ctx + " components";
  ByteCursor comps(cdata, cbytes, comps_ctx);
  const std::uint64_t comp_count = comps.varint();
  if (comp_count > cbytes) {
    throw SnapFormatError(ctx + ": component count " +
                          std::to_string(comp_count) +
                          " exceeds what the section can hold");
  }
  names::ComponentInterner& interner = names::ComponentInterner::global();
  std::vector<std::uint32_t> global_of(comp_count);
  std::string spelling;
  for (std::uint64_t i = 0; i < comp_count; ++i) {
    const std::uint64_t len = comps.varint();
    if (len > comps.remaining()) {
      throw SnapFormatError(ctx + ": component " + std::to_string(i) +
                            " spelling truncated");
    }
    spelling.resize(len);
    comps.bytes(spelling.data(), len);
    global_of[i] = interner.intern(spelling);
  }
  if (!comps.done()) {
    throw SnapFormatError(ctx + ": trailing bytes after component table");
  }

  const auto [edata, ebytes] =
      section(file, parsed, SectionId::kNameEdges, ctx);
  const std::string edges_ctx = ctx + " edges";
  ByteCursor packed_edges(edata, ebytes, edges_ctx);
  const std::uint64_t edge_count = packed_edges.varint();
  if (edge_count > ebytes) {
    throw SnapFormatError(ctx + ": edge count " + std::to_string(edge_count) +
                          " exceeds what the section can hold");
  }
  std::vector<NameTrie::Edge> edges;
  edges.reserve(edge_count);
  std::uint64_t parent = 0;
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    parent += packed_edges.varint();
    const std::uint64_t label = packed_edges.varint();
    const std::uint64_t child = packed_edges.varint();
    if (parent >= node_count || label >= comp_count || child >= node_count) {
      throw SnapFormatError(ctx + ": edge " + std::to_string(i) +
                            " references an out-of-range node or component");
    }
    edges.push_back({static_cast<std::uint32_t>(parent), global_of[label],
                     static_cast<std::uint32_t>(child)});
  }
  if (!packed_edges.done()) {
    throw SnapFormatError(ctx + ": trailing bytes after edge table");
  }

  const auto [vdata, vbytes] =
      section(file, parsed, SectionId::kNameValues, ctx);
  if (node_count > vbytes * 8) {
    throw SnapFormatError(ctx + ": node count " + std::to_string(node_count) +
                          " exceeds the value bitmap");
  }
  BitReader values_reader(vdata, vbytes, ctx + " values");
  std::vector<std::optional<Port>> values(node_count);
  std::uint64_t entries = 0;
  for (std::uint64_t i = 0; i < node_count; ++i) {
    if (!values_reader.bit()) continue;
    const std::uint64_t port = values_reader.varint();
    if (port > 0xffffffffull) {
      throw SnapFormatError(ctx + ": node " + std::to_string(i) +
                            " port out of range");
    }
    values[i] = static_cast<Port>(port);
    ++entries;
  }
  if (entries != parsed.header.entry_count) {
    throw SnapFormatError(ctx + ": header promises " +
                          std::to_string(parsed.header.entry_count) +
                          " entries but the value bitmap carries " +
                          std::to_string(entries));
  }
  // The tree checks (no edge into the root, no slot claimed twice, no
  // duplicate key, every slot reachable) run as the arena is linked.
  try {
    return NameTrie::from_edges(std::move(values), edges);
  } catch (const std::invalid_argument& e) {
    throw SnapFormatError(ctx + ": " + e.what());
  }
}

// --- manifest codec -------------------------------------------------------

std::vector<char> encode_manifest(const Manifest& m) {
  std::vector<char> out;
  net::put_prologue(out, kManifestMagic, kManifestVersion);
  put_u64(out, m.generation);
  put_varint(out, m.tables.size());
  for (const ManifestEntry& e : m.tables) {
    put_varint(out, e.table.size());
    out.insert(out.end(), e.table.begin(), e.table.end());
    put_u16(out, static_cast<std::uint16_t>(e.kind));
    put_u64(out, e.generation);
  }
  put_u32(out, net::crc32(0, out.data(), out.size()));
  return out;
}

Manifest decode_manifest(const net::MappedFile& file,
                         const std::string& ctx) {
  if (file.size() < 4 + 2 + 2 + 8 + 1 + 4) {
    throw SnapFormatError(ctx + ": manifest of " +
                          std::to_string(file.size()) +
                          " bytes is shorter than the fixed fields");
  }
  const std::uint64_t body = file.size() - 4;
  const std::string crc_ctx = ctx + " crc";
  ByteCursor crc_cursor(file.data() + body, 4, crc_ctx);
  if (net::crc32(0, file.data(), body) != crc_cursor.u32()) {
    throw SnapFormatError(ctx + ": manifest CRC mismatch");
  }
  ByteCursor cursor(file.data(), body, ctx);
  net::check_prologue(cursor, kManifestMagic, kManifestVersion,
                      "lina::snap manifest");
  Manifest m;
  m.generation = cursor.u64();
  const std::uint64_t count = cursor.varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    ManifestEntry e;
    const std::uint64_t len = cursor.varint();
    if (len > cursor.remaining()) {
      throw SnapFormatError(ctx + ": table name " + std::to_string(i) +
                            " truncated");
    }
    e.table.resize(len);
    cursor.bytes(e.table.data(), len);
    const std::uint16_t kind = cursor.u16();
    if (kind != static_cast<std::uint16_t>(SnapKind::kIpFib) &&
        kind != static_cast<std::uint16_t>(SnapKind::kNameFib)) {
      throw SnapFormatError(ctx + ": unknown snapshot kind " +
                            std::to_string(kind));
    }
    e.kind = static_cast<SnapKind>(kind);
    e.generation = cursor.u64();
    m.tables.push_back(std::move(e));
  }
  if (!cursor.done()) {
    throw SnapFormatError(ctx + ": trailing bytes after the table list");
  }
  return m;
}

// --- load-side glue -------------------------------------------------------

struct Opened {
  net::MappedFile file;
  Parsed parsed;
  std::string ctx;
};

/// Resolves a table through the manifest, maps its committed file, and
/// runs all structural validation; throws SnapFormatError on any problem.
Opened open_table(const SnapshotStore& store, const std::string& table,
                  SnapKind want) {
  const Manifest m = store.manifest();
  const ManifestEntry* entry = m.find(table);
  if (entry == nullptr) {
    throw SnapFormatError(store.dir().string() +
                          ": no committed snapshot for table '" + table + "'");
  }
  if (entry->kind != want) {
    throw SnapFormatError(store.dir().string() + ": table '" + table +
                          "' holds a different snapshot kind");
  }
  const std::filesystem::path path =
      store.table_path(table, entry->generation);
  auto file = net::MappedFile::open<SnapIoError>(path);
  std::string ctx = path.string();
  Parsed parsed = parse_snapshot(file, ctx);
  if (parsed.header.kind != want) {
    throw SnapFormatError(ctx + ": header kind disagrees with the manifest");
  }
  if (parsed.header.generation != entry->generation) {
    throw SnapFormatError(ctx + ": header generation " +
                          std::to_string(parsed.header.generation) +
                          " but the manifest expects " +
                          std::to_string(entry->generation));
  }
  return {std::move(file), std::move(parsed), std::move(ctx)};
}

}  // namespace

SnapshotStore::SnapshotStore(std::filesystem::path dir, FaultPlan faults)
    : dir_(std::move(dir)), faults_(std::move(faults)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw SnapIoError(dir_.string() +
                      ": cannot create snapshot directory: " + ec.message());
  }
}

std::filesystem::path SnapshotStore::manifest_path() const {
  return dir_ / "MANIFEST.lsnp";
}

std::filesystem::path SnapshotStore::table_path(
    const std::string& table, std::uint64_t generation) const {
  return dir_ / (table + ".g" + std::to_string(generation) + ".lsnp");
}

Manifest SnapshotStore::manifest() const {
  const std::filesystem::path path = manifest_path();
  if (!std::filesystem::exists(path)) return Manifest{};
  const auto file = net::MappedFile::open<SnapIoError>(path);
  return decode_manifest(file, path.string());
}

SavedInfo SnapshotStore::commit(
    const std::string& table, SnapHeader header,
    std::vector<std::pair<SectionId, std::vector<char>>> sections) {
  validate_table_name(table);
  const SnapKind kind = header.kind;
  Manifest m;
  try {
    m = manifest();
  } catch (const SnapFormatError&) {
    m = Manifest{};  // a corrupt manifest resets the store
  }
  const std::uint64_t generation = m.generation + 1;
  header.generation = generation;
  Image image = build_image(header, std::move(sections));
  const std::filesystem::path path = table_path(table, generation);
  atomic_write_file(path, image.bytes,
                    faults_.empty() ? nullptr : &faults_);
  if (faults_.crash_before_manifest) {
    throw SnapIoError(path.string() +
                      ": injected crash before manifest commit "
                      "(data file committed, manifest stale)");
  }
  std::uint64_t stale_generation = 0;
  ManifestEntry* existing = nullptr;
  for (ManifestEntry& e : m.tables) {
    if (e.table == table) {
      existing = &e;
      break;
    }
  }
  if (existing != nullptr) {
    stale_generation = existing->generation;
    existing->kind = kind;
    existing->generation = generation;
  } else {
    m.tables.push_back({table, kind, generation});
  }
  m.generation = generation;
  atomic_write_file(manifest_path(), encode_manifest(m));
  if (existing != nullptr && stale_generation != generation) {
    std::error_code ec;
    std::filesystem::remove(table_path(table, stale_generation), ec);
  }
  obs::metric::snap_saves().add();
  obs::metric::snap_bytes_written().add(image.bytes.size());
  obs::metric::snap_snapshot_bytes().set(
      static_cast<double>(image.bytes.size()));
  return SavedInfo{path, image.bytes.size(), generation,
                   std::move(image.records)};
}

SavedInfo SnapshotStore::save_ip_fib(const std::string& table,
                                     const routing::FrozenFib& fib) {
  PROF_SPAN("lina.snap.save");
  SnapHeader header;
  header.kind = SnapKind::kIpFib;
  header.entry_count = fib.trie().size();
  header.node_count = fib.trie().node_count();
  return commit(table, header, encode_ip(fib.trie()));
}

SavedInfo SnapshotStore::save_name_fib(const std::string& table,
                                       const routing::NameFib& fib) {
  PROF_SPAN("lina.snap.save");
  SnapHeader header;
  header.kind = SnapKind::kNameFib;
  header.entry_count = fib.trie().size();
  header.node_count = fib.trie().live_nodes();
  return commit(table, header, encode_name(fib.trie()));
}

routing::FrozenFib SnapshotStore::load_ip_fib(const std::string& table) const {
  PROF_SPAN("lina.snap.load");
  Opened opened = open_table(*this, table, SnapKind::kIpFib);
  IpTrie trie = decode_ip(opened.file, opened.parsed, opened.ctx);
  obs::metric::snap_loads().add();
  return routing::FrozenFib(std::move(trie));
}

routing::NameFib SnapshotStore::load_name_fib(const std::string& table) const {
  PROF_SPAN("lina.snap.load");
  Opened opened = open_table(*this, table, SnapKind::kNameFib);
  NameTrie trie = decode_name(opened.file, opened.parsed, opened.ctx);
  obs::metric::snap_loads().add();
  return routing::NameFib(std::move(trie));
}

}  // namespace lina::snap

namespace lina::routing {

FrozenFib FrozenFib::load_or_rebuild(const std::filesystem::path& dir,
                                     const std::string& table,
                                     const Fib& live) {
  try {
    const snap::SnapshotStore store(dir);
    return store.load_ip_fib(table);
  } catch (const snap::SnapFormatError&) {
    obs::metric::snap_load_failures().add();
    obs::metric::snap_fallback_rebuilds().add();
    return live.freeze();
  }
}

NameFib NameFib::load_or_rebuild(const std::filesystem::path& dir,
                                 const std::string& table,
                                 const NameFib& live) {
  try {
    const snap::SnapshotStore store(dir);
    return store.load_name_fib(table);
  } catch (const snap::SnapFormatError&) {
    obs::metric::snap_load_failures().add();
    obs::metric::snap_fallback_rebuilds().add();
    return live;
  }
}

}  // namespace lina::routing
