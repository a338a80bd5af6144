#include "qdcbir/dataset/database_io.h"

#include <array>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <utility>

#include "qdcbir/core/crc32c.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {

namespace {

constexpr char kCatalogMagic[] = "QDCAT001";
constexpr char kDatabaseMagicV1[] = "QDDB0001";
constexpr char kSnapshotMagic[] = "QDSNAP02";
constexpr std::size_t kMagicLen = 8;
constexpr std::uint32_t kSnapshotVersion = 2;

/// Directory geometry: magic + version + chunk count, then one fixed-size
/// entry per chunk, then the directory's own CRC32C.
constexpr std::size_t kDirFixedBytes = kMagicLen + 4 + 4;
constexpr std::size_t kDirEntryBytes = 4 + 4 + 8 + 8 + 4;
/// Upper bound on the chunk count a reader will accept. The writer emits at
/// most 11 chunks; the slack leaves room for future sections while keeping
/// a hostile count from driving a large directory allocation.
constexpr std::uint32_t kMaxChunks = 64;

constexpr std::uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kChunkCatalog = FourCc('C', 'A', 'T', 'L');
constexpr std::uint32_t kChunkMeta = FourCc('M', 'E', 'T', 'A');
constexpr std::uint32_t kChunkRecords = FourCc('R', 'E', 'C', 'S');
constexpr std::uint32_t kChunkRfs = FourCc('R', 'F', 'S', '0');

std::uint32_t FeatureChunkId(int channel) {
  return FourCc('F', 'T', 'B', static_cast<char>('0' + channel));
}
std::uint32_t NormalizerChunkId(int channel) {
  return FourCc('N', 'R', 'M', static_cast<char>('0' + channel));
}

std::string ChunkIdToString(std::uint32_t id) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xffu);
    s[i] = (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

class Writer {
 public:
  void Raw(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }
  template <typename T>
  void Pod(T v) {
    Raw(&v, sizeof(T));
  }
  void Str(const std::string& s) {
    Pod<std::uint64_t>(s.size());
    Raw(s.data(), s.size());
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// A length-prefixed string.
bool ReadStr(ByteReader& r, std::string* s) {
  std::uint64_t n = 0;
  if (!r.Count(&n, 1)) return false;
  s->resize(static_cast<std::size_t>(n));
  return r.Raw(s->data(), s->size());
}

void WriteRecipe(Writer& w, const SubConceptRecipe& r) {
  w.Pod<std::int32_t>(static_cast<std::int32_t>(r.background));
  w.Pod(r.bg_color1);
  w.Pod(r.bg_color2);
  w.Pod(r.bg_noise_scale);
  w.Pod(r.bg_noise_amp);
  w.Pod<std::int32_t>(static_cast<std::int32_t>(r.texture));
  w.Pod(r.texture_color);
  w.Pod(r.texture_param);
  w.Pod(r.texture_alpha);
  w.Pod(r.texture_angle);
  w.Pod<std::int32_t>(r.texture_count);
  w.Pod<std::int32_t>(static_cast<std::int32_t>(r.shape));
  w.Pod(r.shape_color);
  w.Pod(r.shape_size_frac);
  w.Pod(r.shape_aspect);
  w.Pod(r.shape_rotation);
  w.Pod<std::int32_t>(r.polygon_sides);
  w.Pod<std::int32_t>(r.shape_count);
  w.Pod<std::int32_t>(r.line_count);
  w.Pod<std::int32_t>(r.line_thickness);
  w.Pod(r.jitter_position_frac);
  w.Pod(r.jitter_size_frac);
  w.Pod(r.jitter_rotation);
  w.Pod(r.jitter_hue);
  w.Pod(r.pixel_noise_stddev);
}

bool ReadRecipe(ByteReader& r, SubConceptRecipe* out) {
  std::int32_t background = 0, texture = 0, shape = 0;
  bool ok = r.Pod(&background) && r.Pod(&out->bg_color1) &&
            r.Pod(&out->bg_color2) && r.Pod(&out->bg_noise_scale) &&
            r.Pod(&out->bg_noise_amp) && r.Pod(&texture) &&
            r.Pod(&out->texture_color) && r.Pod(&out->texture_param) &&
            r.Pod(&out->texture_alpha) && r.Pod(&out->texture_angle) &&
            r.Pod(&out->texture_count) && r.Pod(&shape) &&
            r.Pod(&out->shape_color) && r.Pod(&out->shape_size_frac) &&
            r.Pod(&out->shape_aspect) && r.Pod(&out->shape_rotation) &&
            r.Pod(&out->polygon_sides) && r.Pod(&out->shape_count) &&
            r.Pod(&out->line_count) && r.Pod(&out->line_thickness) &&
            r.Pod(&out->jitter_position_frac) &&
            r.Pod(&out->jitter_size_frac) && r.Pod(&out->jitter_rotation) &&
            r.Pod(&out->jitter_hue) && r.Pod(&out->pixel_noise_stddev);
  if (!ok) return false;
  out->background = static_cast<BackgroundKind>(background);
  out->texture = static_cast<TextureKind>(texture);
  out->shape = static_cast<ShapeKind>(shape);
  return true;
}

void WriteCatalogBody(Writer& w, const Catalog& catalog) {
  w.Pod<std::uint64_t>(catalog.categories().size());
  for (const CategorySpec& c : catalog.categories()) {
    w.Str(c.name);
    w.Pod<std::uint64_t>(c.subconcepts.size());
    for (const SubConceptId id : c.subconcepts) w.Pod(id);
  }
  w.Pod<std::uint64_t>(catalog.subconcepts().size());
  for (const SubConceptSpec& s : catalog.subconcepts()) {
    w.Pod(s.category);
    w.Str(s.name);
    w.Pod(s.weight);
    WriteRecipe(w, s.recipe);
  }
  w.Pod<std::uint64_t>(catalog.queries().size());
  for (const QueryConceptSpec& q : catalog.queries()) {
    w.Str(q.name);
    w.Pod<std::uint64_t>(q.subconcepts.size());
    for (const QuerySubConcept& qs : q.subconcepts) {
      w.Str(qs.name);
      w.Pod<std::uint64_t>(qs.members.size());
      for (const SubConceptId id : qs.members) w.Pod(id);
    }
  }
}

bool ReadCatalogBody(ByteReader& r, std::vector<CategorySpec>* categories,
                     std::vector<SubConceptSpec>* subconcepts,
                     std::vector<QueryConceptSpec>* queries) {
  std::uint64_t num_categories = 0;
  // Minimum on-disk footprints: a category is a name length plus a
  // sub-concept count (16 bytes), a sub-concept id is 4 bytes, and so on —
  // the `Count` bounds below keep hostile counts from over-allocating.
  if (!r.Count(&num_categories, 16)) return false;
  categories->resize(num_categories);
  for (std::uint64_t c = 0; c < num_categories; ++c) {
    CategorySpec& cat = (*categories)[c];
    cat.id = static_cast<CategoryId>(c);
    std::uint64_t subs = 0;
    if (!ReadStr(r, &cat.name) || !r.Count(&subs, sizeof(SubConceptId))) {
      return false;
    }
    cat.subconcepts.resize(subs);
    for (auto& id : cat.subconcepts) {
      if (!r.Pod(&id)) return false;
    }
  }
  std::uint64_t num_subs = 0;
  if (!r.Count(&num_subs, 16)) return false;
  subconcepts->resize(num_subs);
  for (std::uint64_t s = 0; s < num_subs; ++s) {
    SubConceptSpec& sub = (*subconcepts)[s];
    sub.id = static_cast<SubConceptId>(s);
    if (!r.Pod(&sub.category) || !ReadStr(r, &sub.name) ||
        !r.Pod(&sub.weight) || !ReadRecipe(r, &sub.recipe)) {
      return false;
    }
  }
  std::uint64_t num_queries = 0;
  if (!r.Count(&num_queries, 16)) return false;
  queries->resize(num_queries);
  for (auto& q : *queries) {
    std::uint64_t subs = 0;
    if (!ReadStr(r, &q.name) || !r.Count(&subs, 16)) return false;
    q.subconcepts.resize(subs);
    for (auto& qs : q.subconcepts) {
      std::uint64_t members = 0;
      if (!ReadStr(r, &qs.name) ||
          !r.Count(&members, sizeof(SubConceptId))) {
        return false;
      }
      qs.members.resize(members);
      for (auto& id : qs.members) {
        if (!r.Pod(&id)) return false;
      }
    }
  }
  return true;
}

/// A feature table: its row count, then each row as its length and its
/// doubles.
void WriteFeatureTable(Writer& w, const FeatureStore& table) {
  w.Pod<std::uint64_t>(table.size());
  for (ImageId i = 0; i < table.size(); ++i) {
    const FeatureRow row = table.row(i);
    w.Pod<std::uint64_t>(row.size());
    w.Raw(row.data(), row.size_bytes());
  }
}

/// Reads a feature table into one row-major block. Every row must have row
/// 0's length, and it must not be 0: the store, its blocked table and every
/// distance kernel take one dimensionality from row 0. The rows' extent,
/// n * (8 + 8 * dim) bytes, is checked against the chunk before the block
/// is allocated; each row is then copied from the reader's window straight
/// into its place.
bool ReadFeatureTable(ByteReader& r,
                      std::shared_ptr<const FeatureStore>* table) {
  std::uint64_t n = 0, dim = 0;
  if (!r.Count(&n, sizeof(std::uint64_t))) return false;
  if (n == 0) {
    *table = FeatureStore::Empty();
    return true;
  }
  if (!r.Count(&dim, sizeof(double)) || dim == 0) return false;
  // Row 0's length is read already.
  const std::uint64_t row_bytes = sizeof(std::uint64_t) + dim * sizeof(double);
  if (n > (r.Remaining() + sizeof(std::uint64_t)) / row_bytes) return false;
  auto values = std::make_unique_for_overwrite<double[]>(n * dim);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t length = dim;
    if (i > 0 && (!r.Pod(&length) || length != dim)) return false;
    if (!r.Raw(values.get() + i * dim, dim * sizeof(double))) return false;
  }
  *table = std::make_shared<const FeatureStore>(std::move(values), n, dim);
  return true;
}

void WriteRecords(Writer& w, const std::vector<ImageRecord>& records) {
  w.Pod<std::uint64_t>(records.size());
  for (const ImageRecord& rec : records) {
    w.Pod(rec.subconcept);
    w.Pod(rec.category);
    w.Pod(rec.render_seed);
  }
}

bool ReadRecords(ByteReader& r, std::vector<ImageRecord>* records) {
  std::uint64_t n = 0;
  if (!r.Count(&n, 16)) return false;  // 4 + 4 + 8 bytes per record
  records->resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ImageRecord& rec = (*records)[i];
    rec.id = static_cast<ImageId>(i);
    if (!r.Pod(&rec.subconcept) || !r.Pod(&rec.category) ||
        !r.Pod(&rec.render_seed)) {
      return false;
    }
  }
  return true;
}

/// One parsed v2 chunk-directory entry.
struct DirEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

template <typename T>
T LoadPod(const std::string& buf, std::size_t offset) {
  T v;
  std::memcpy(&v, buf.data() + offset, sizeof(T));
  return v;
}

/// Reads and validates the snapshot header + chunk directory: magic,
/// version, directory CRC, and every entry's bounds against the source
/// size. Distinguishes the three failure classes the loaders promise.
StatusOr<std::vector<DirEntry>> ReadDirectory(const ByteSource& src) {
  char magic[kMagicLen];
  if (src.Size() < kMagicLen) {
    return Status::Truncated("snapshot shorter than its magic");
  }
  QDCBIR_RETURN_IF_ERROR(src.ReadAt(0, kMagicLen, magic));
  if (std::memcmp(magic, kDatabaseMagicV1, kMagicLen) == 0) {
    return Status::VersionMismatch(
        "snapshot format v1 is no longer read; re-create the file with "
        "`qdcbir_tool synth`");
  }
  if (std::memcmp(magic, kSnapshotMagic, 6) != 0) {
    return Status::Corrupt("not a qdcbir snapshot (bad magic)");
  }
  if (src.Size() < kDirFixedBytes) {
    return Status::Truncated("snapshot directory cut short");
  }
  char fixed[8];
  QDCBIR_RETURN_IF_ERROR(src.ReadAt(kMagicLen, 8, fixed));
  std::uint32_t version, count;
  std::memcpy(&version, fixed, 4);
  std::memcpy(&count, fixed + 4, 4);
  if (version != kSnapshotVersion) {
    return Status::VersionMismatch("snapshot version " +
                                   std::to_string(version) +
                                   " (this build reads version 2)");
  }
  if (count > kMaxChunks) {
    return Status::Corrupt("implausible chunk count " + std::to_string(count));
  }
  const std::uint64_t dir_bytes =
      kDirFixedBytes + std::uint64_t{count} * kDirEntryBytes + 4;
  if (src.Size() < dir_bytes) {
    return Status::Truncated("snapshot directory cut short");
  }
  std::string dir_buf(dir_bytes, '\0');
  QDCBIR_RETURN_IF_ERROR(src.ReadAt(0, dir_bytes, dir_buf.data()));
  const std::uint32_t stored_crc =
      LoadPod<std::uint32_t>(dir_buf, dir_bytes - 4);
  if (Crc32c::Compute(dir_buf.data(), dir_bytes - 4) != stored_crc) {
    return Status::Corrupt("snapshot directory checksum mismatch");
  }

  std::vector<DirEntry> dir(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base = kDirFixedBytes + i * kDirEntryBytes;
    DirEntry& e = dir[i];
    e.id = LoadPod<std::uint32_t>(dir_buf, base);
    e.offset = LoadPod<std::uint64_t>(dir_buf, base + 8);
    e.length = LoadPod<std::uint64_t>(dir_buf, base + 16);
    e.crc = LoadPod<std::uint32_t>(dir_buf, base + 24);
    if (e.offset < dir_bytes) {
      return Status::Corrupt("chunk " + ChunkIdToString(e.id) +
                             " overlaps the directory");
    }
    if (e.offset > src.Size() || e.length > src.Size() - e.offset) {
      return Status::Truncated("chunk " + ChunkIdToString(e.id) +
                               " extends past the end of the snapshot");
    }
    for (std::uint32_t j = 0; j < i; ++j) {
      if (dir[j].id == e.id) {
        return Status::Corrupt("duplicate chunk " + ChunkIdToString(e.id));
      }
    }
  }
  return dir;
}

/// Decoded-but-unassembled chunk contents. Each chunk decodes into its own
/// slot, so the async loader's tasks never share mutable state.
struct Staging {
  bool has_meta = false;
  std::int32_t width = 0, height = 0;
  std::uint64_t record_count = 0;
  std::uint8_t channels_flag = 0;

  bool has_catalog = false;
  std::vector<CategorySpec> categories;
  std::vector<SubConceptSpec> subconcepts;
  std::vector<QueryConceptSpec> queries;

  bool has_records = false;
  std::vector<ImageRecord> records;

  bool has_table[kNumViewpointChannels] = {};
  std::array<std::shared_ptr<const FeatureStore>, kNumViewpointChannels>
      tables;

  bool has_norm[kNumViewpointChannels] = {};
  FeatureNormalizer norms[kNumViewpointChannels];
};

struct IoLoadMetrics {
  obs::Counter& bytes;
  obs::Counter& chunks;
  obs::Counter& chunks_skipped;
  obs::Counter& crc_failures;

  static IoLoadMetrics& Get() {
    static IoLoadMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new IoLoadMetrics{
          reg.GetCounter("io.load.bytes", "Snapshot bytes read and decoded"),
          reg.GetCounter("io.load.chunks", "Snapshot chunks decoded"),
          reg.GetCounter("io.load.chunks_skipped",
                         "Snapshot chunks skipped (unknown id or disabled)"),
          reg.GetCounter("io.load.crc_failures",
                         "Snapshot chunks rejected by checksum")};
    }();
    return *m;
  }
};

/// Verifies the RFS chunk's CRC32C by streaming it through `Crc32cOfRange`
/// windows, so the section is never held in memory whole.
Status VerifyRfsChunk(const ByteSource& src, const DirEntry& e) {
  StatusOr<std::uint32_t> crc = Crc32cOfRange(src, e.offset, e.length);
  if (!crc.ok()) return crc.status();
  if (*crc != e.crc) {
    IoLoadMetrics::Get().crc_failures.Add(1);
    return Status::Corrupt("chunk RFS0 checksum mismatch");
  }
  return Status::Ok();
}

/// Decodes the body of chunk `e` from `r` into `st`: kCorrupt when it is
/// malformed, Ok for a chunk id this build does not read (`known` false),
/// which is left unread. A read error stays in `r` for `Drain` to report.
Status DecodeChunkBody(const DirEntry& e, ByteReader& r, Staging* st,
                       bool* known) {
  const auto malformed = [&e] {
    return Status::Corrupt("chunk " + ChunkIdToString(e.id) + " malformed");
  };
  // A body must fill its chunk exactly.
  const auto whole = [&r](bool decoded) {
    return decoded && r.Remaining() == 0;
  };
  *known = true;
  if (e.id == kChunkCatalog) {
    st->has_catalog = whole(ReadCatalogBody(r, &st->categories,
                                            &st->subconcepts, &st->queries));
    return st->has_catalog ? Status::Ok() : malformed();
  }
  if (e.id == kChunkMeta) {
    st->has_meta = whole(r.Pod(&st->width) && r.Pod(&st->height) &&
                         r.Pod(&st->record_count) &&
                         r.Pod(&st->channels_flag));
    return st->has_meta ? Status::Ok() : malformed();
  }
  if (e.id == kChunkRecords) {
    st->has_records = whole(ReadRecords(r, &st->records));
    return st->has_records ? Status::Ok() : malformed();
  }
  for (int c = 0; c < kNumViewpointChannels; ++c) {
    if (e.id == FeatureChunkId(c)) {
      st->has_table[c] = whole(ReadFeatureTable(r, &st->tables[c]));
      return st->has_table[c] ? Status::Ok() : malformed();
    }
    if (e.id == NormalizerChunkId(c)) {
      std::string payload(static_cast<std::size_t>(e.length), '\0');
      if (!r.Raw(payload.data(), payload.size())) return malformed();
      StatusOr<FeatureNormalizer> n = FeatureNormalizer::Deserialize(payload);
      if (!n.ok()) {
        return Status::Corrupt("chunk " + ChunkIdToString(e.id) + ": " +
                               n.status().message());
      }
      st->norms[c] = std::move(n).value();
      st->has_norm[c] = true;
      return Status::Ok();
    }
  }
  *known = false;
  return Status::Ok();
}

/// Reads one chunk from `src`, verifies its CRC32C and decodes it into
/// `st`. The body decodes as its `ByteReader` windows arrive and the
/// checksum extends over the same windows, so no chunk is held whole. The
/// reader then drains what the decode left, and the errors keep their
/// precedence: a read error, then a checksum mismatch, then a malformed
/// body. Runs on a pool lane during async loads; touches only this chunk's
/// staging slot.
Status ReadAndDecodeChunk(const ByteSource& src, const DirEntry& e,
                          bool verify, Staging* st) {
  IoLoadMetrics& metrics = IoLoadMetrics::Get();
  if (e.id == kChunkRfs) {
    // The RFS section is not part of the database: `RfsSerializer` decodes
    // it straight from the source. The database load only vouches for its
    // checksum, without reading it into memory.
    metrics.chunks_skipped.Add(1);
    if (!verify) return Status::Ok();
    QDCBIR_SPAN("io.load.crc");
    metrics.bytes.Add(e.length);
    return VerifyRfsChunk(src, e);
  }
  QDCBIR_SPAN("io.load.decode");
  const SliceByteSource chunk(src, e.offset, e.length);
  ByteReader r(chunk, "snapshot chunk", /*checksum=*/verify);
  bool known = true;
  const Status body = DecodeChunkBody(e, r, st, &known);
  QDCBIR_RETURN_IF_ERROR(r.Drain());
  metrics.bytes.Add(e.length);
  if (verify && r.crc() != e.crc) {
    metrics.crc_failures.Add(1);
    return Status::Corrupt("chunk " + ChunkIdToString(e.id) +
                           " checksum mismatch");
  }
  QDCBIR_RETURN_IF_ERROR(body);
  if (known) {
    metrics.chunks.Add(1);
  } else {
    // Unknown chunk kinds are tolerated (forward compatibility): their
    // checksum was still verified above.
    metrics.chunks_skipped.Add(1);
  }
  return Status::Ok();
}

}  // namespace

std::string DatabaseIo::SerializeCatalog(const Catalog& catalog) {
  Writer w;
  w.Raw(kCatalogMagic, kMagicLen);
  WriteCatalogBody(w, catalog);
  return w.Take();
}

StatusOr<Catalog> DatabaseIo::DeserializeCatalog(const std::string& bytes) {
  const MemoryByteSource source(bytes);
  ByteReader r(source, "catalog blob");
  char magic[kMagicLen];
  if (!r.Raw(magic, kMagicLen) ||
      std::memcmp(magic, kCatalogMagic, kMagicLen) != 0) {
    return Status::Corrupt("not a catalog blob (bad magic)");
  }
  Catalog catalog;
  if (!ReadCatalogBody(r, &catalog.categories_, &catalog.subconcepts_,
                       &catalog.queries_)) {
    return Status::Truncated("truncated catalog blob");
  }
  return catalog;
}

std::string DatabaseIo::SerializeDatabase(const ImageDatabase& db,
                                          const std::string* rfs_blob) {
  QDCBIR_SPAN("io.save.serialize");
  const bool channels = db.has_channel_features();

  std::vector<std::pair<std::uint32_t, std::string>> chunks;
  {
    Writer w;
    WriteCatalogBody(w, db.catalog_);
    chunks.emplace_back(kChunkCatalog, w.Take());
  }
  {
    Writer w;
    w.Pod(db.image_width_);
    w.Pod(db.image_height_);
    w.Pod<std::uint64_t>(db.records_.size());
    w.Pod<std::uint8_t>(channels ? 1 : 0);
    chunks.emplace_back(kChunkMeta, w.Take());
  }
  {
    Writer w;
    WriteRecords(w, db.records_);
    chunks.emplace_back(kChunkRecords, w.Take());
  }
  {
    Writer w;
    WriteFeatureTable(w, db.features());
    chunks.emplace_back(FeatureChunkId(0), w.Take());
  }
  if (channels) {
    for (int c = 1; c < kNumViewpointChannels; ++c) {
      Writer w;
      WriteFeatureTable(w,
                        db.channel_features(static_cast<ViewpointChannel>(c)));
      chunks.emplace_back(FeatureChunkId(c), w.Take());
    }
  }
  chunks.emplace_back(NormalizerChunkId(0), db.normalizer_.Serialize());
  if (channels) {
    for (int c = 1; c < kNumViewpointChannels; ++c) {
      chunks.emplace_back(NormalizerChunkId(c),
                          db.channel_normalizers_[c].Serialize());
    }
  }
  if (rfs_blob != nullptr) chunks.emplace_back(kChunkRfs, *rfs_blob);

  Writer dir;
  dir.Raw(kSnapshotMagic, kMagicLen);
  dir.Pod<std::uint32_t>(kSnapshotVersion);
  dir.Pod<std::uint32_t>(static_cast<std::uint32_t>(chunks.size()));
  std::uint64_t offset =
      kDirFixedBytes + chunks.size() * kDirEntryBytes + 4;
  std::uint64_t payload_bytes = 0;
  for (const auto& [id, payload] : chunks) {
    dir.Pod<std::uint32_t>(id);
    dir.Pod<std::uint32_t>(0);  // reserved
    dir.Pod<std::uint64_t>(offset);
    dir.Pod<std::uint64_t>(payload.size());
    dir.Pod<std::uint32_t>(Crc32c::Compute(payload));
    offset += payload.size();
    payload_bytes += payload.size();
  }
  std::string out = dir.Take();
  const std::uint32_t dir_crc = Crc32c::Compute(out);
  out.append(reinterpret_cast<const char*>(&dir_crc), 4);
  out.reserve(out.size() + payload_bytes);
  for (const auto& [id, payload] : chunks) out.append(payload);
  return out;
}

StatusOr<ImageDatabase> DatabaseIo::DeserializeDatabase(
    const std::string& bytes) {
  MemoryByteSource source(bytes);
  return LoadDatabaseFrom(source, SnapshotLoadOptions{});
}

StatusOr<ImageDatabase> DatabaseIo::LoadDatabaseFrom(
    const ByteSource& source, const SnapshotLoadOptions& options) {
  QDCBIR_SPAN("io.load.total");
  const StatusOr<std::vector<DirEntry>> dir = ReadDirectory(source);
  if (!dir.ok()) return dir.status();

  Staging st;
  const std::vector<DirEntry>& entries = *dir;
  std::vector<Status> statuses(entries.size());
  const bool parallel = options.pool != nullptr && options.pool->size() > 1 &&
                        entries.size() > 1;
  if (parallel) {
    // Each task reads its own byte range (positioned I/O) and decodes into
    // its own staging slot: file reads overlap with decoding and with each
    // other, and the assembled database is byte-identical to a sequential
    // load because assembly below is order-independent.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      tasks.push_back([&source, &entries, &options, &st, &statuses, i] {
        statuses[i] = ReadAndDecodeChunk(source, entries[i],
                                         options.verify_checksums, &st);
      });
    }
    options.pool->Run(std::move(tasks));
  } else {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      statuses[i] = ReadAndDecodeChunk(source, entries[i],
                                       options.verify_checksums, &st);
    }
  }
  // Report the first failure in directory order so the error is
  // deterministic across pool widths.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  QDCBIR_SPAN("io.load.assemble");
  if (!st.has_catalog || !st.has_meta || !st.has_records || !st.has_table[0] ||
      !st.has_norm[0]) {
    return Status::Corrupt("snapshot is missing a required chunk");
  }
  ImageDatabase db;
  db.catalog_.categories_ = std::move(st.categories);
  db.catalog_.subconcepts_ = std::move(st.subconcepts);
  db.catalog_.queries_ = std::move(st.queries);
  db.image_width_ = st.width;
  db.image_height_ = st.height;

  if (st.records.size() != st.record_count) {
    return Status::Corrupt("record count disagrees with snapshot meta");
  }
  db.records_ = std::move(st.records);
  db.subconcept_images_.assign(db.catalog_.subconcepts().size(), {});
  for (const ImageRecord& rec : db.records_) {
    if (rec.subconcept >= db.subconcept_images_.size()) {
      return Status::Corrupt("record references unknown sub-concept");
    }
    db.subconcept_images_[rec.subconcept].push_back(rec.id);
  }

  if (st.tables[0]->size() != db.records_.size()) {
    return Status::Corrupt("feature table size mismatch");
  }
  db.normalizer_ = std::move(st.norms[0]);
  db.channel_normalizers_[0] = db.normalizer_;

  const bool channels = st.channels_flag != 0;
  for (int c = 1; c < kNumViewpointChannels; ++c) {
    if (channels != st.has_table[c] || channels != st.has_norm[c]) {
      return Status::Corrupt("channel chunks disagree with snapshot meta");
    }
    if (channels) {
      if (st.tables[c]->size() != db.records_.size()) {
        return Status::Corrupt("channel feature table size mismatch");
      }
      // Each table's rows share one length (`ReadFeatureTable`); a channel
      // is compared with queries of the main table's dimensionality.
      if (st.tables[c]->dim() != st.tables[0]->dim()) {
        return Status::Corrupt("channel feature table dimension mismatch");
      }
      db.channel_normalizers_[c] = std::move(st.norms[c]);
    }
  }
  db.InstallFeatures(std::move(st.tables));
  return db;
}

Status DatabaseIo::SaveDatabase(const ImageDatabase& db,
                                const std::string& path,
                                const std::string* rfs_blob) {
  QDCBIR_SPAN("io.save.total");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const std::string bytes = SerializeDatabase(db, rfs_blob);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed: " + path);
  obs::MetricsRegistry::Global()
      .GetCounter("io.save.bytes", "Snapshot bytes serialized to disk")
      .Add(bytes.size());
  return Status::Ok();
}

StatusOr<ImageDatabase> DatabaseIo::LoadDatabase(const std::string& path) {
  return LoadDatabase(path, SnapshotLoadOptions{});
}

StatusOr<ImageDatabase> DatabaseIo::LoadDatabase(
    const std::string& path, const SnapshotLoadOptions& options) {
  StatusOr<std::unique_ptr<FileByteSource>> source =
      FileByteSource::Open(path);
  if (!source.ok()) return source.status();
  return LoadDatabaseFrom(**source, options);
}

StatusOr<SnapshotChunkInfo> DatabaseIo::FindEmbeddedRfs(
    const ByteSource& source) {
  const StatusOr<std::vector<DirEntry>> dir = ReadDirectory(source);
  if (!dir.ok()) return dir.status();
  for (const DirEntry& e : *dir) {
    if (e.id != kChunkRfs) continue;
    QDCBIR_RETURN_IF_ERROR(VerifyRfsChunk(source, e));
    return SnapshotChunkInfo{ChunkIdToString(e.id), e.offset, e.length, e.crc,
                             /*crc_ok=*/true};
  }
  return Status::NotFound("snapshot has no embedded RFS section");
}

StatusOr<SnapshotInfo> DatabaseIo::InspectSnapshot(const ByteSource& source) {
  const StatusOr<std::vector<DirEntry>> dir = ReadDirectory(source);
  if (!dir.ok()) return dir.status();
  SnapshotInfo info;
  info.file_size = source.Size();
  for (const DirEntry& e : *dir) {
    SnapshotChunkInfo chunk;
    chunk.id = ChunkIdToString(e.id);
    chunk.offset = e.offset;
    chunk.length = e.length;
    chunk.crc32c = e.crc;
    const StatusOr<std::uint32_t> crc =
        Crc32cOfRange(source, e.offset, e.length);
    chunk.crc_ok = crc.ok() && *crc == e.crc;
    info.chunks.push_back(std::move(chunk));
  }
  return info;
}

StatusOr<SnapshotInfo> DatabaseIo::InspectSnapshot(const std::string& path) {
  StatusOr<std::unique_ptr<FileByteSource>> source =
      FileByteSource::Open(path);
  if (!source.ok()) return source.status();
  return InspectSnapshot(**source);
}

}  // namespace qdcbir
