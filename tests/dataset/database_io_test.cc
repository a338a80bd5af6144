#include "qdcbir/dataset/database_io.h"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qdcbir/dataset/synthesizer.h"

namespace qdcbir {
namespace {

/// Structural equality deep enough for round-trip checks: every field the
/// format persists, plus derived lookups.
void ExpectDatabasesEqual(const ImageDatabase& a, const ImageDatabase& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.image_width(), b.image_width());
  EXPECT_EQ(a.image_height(), b.image_height());
  EXPECT_EQ(a.has_channel_features(), b.has_channel_features());
  ASSERT_EQ(a.catalog().categories().size(), b.catalog().categories().size());
  ASSERT_EQ(a.catalog().subconcepts().size(),
            b.catalog().subconcepts().size());
  ASSERT_EQ(a.catalog().queries().size(), b.catalog().queries().size());
  for (ImageId i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.feature(i), b.feature(i));
    ASSERT_EQ(a.record(i).subconcept, b.record(i).subconcept);
    ASSERT_EQ(a.record(i).category, b.record(i).category);
    ASSERT_EQ(a.record(i).render_seed, b.record(i).render_seed);
  }
  if (a.has_channel_features()) {
    for (ImageId i = 0; i < a.size(); ++i) {
      for (const ViewpointChannel c :
           {ViewpointChannel::kNegative, ViewpointChannel::kGray,
            ViewpointChannel::kGrayNegative}) {
        ASSERT_EQ(a.channel_feature(c, i), b.channel_feature(c, i));
      }
    }
  }
  for (const SubConceptSpec& s : a.catalog().subconcepts()) {
    EXPECT_EQ(a.ImagesOfSubConcept(s.id), b.ImagesOfSubConcept(s.id));
  }
}

/// A `MemoryByteSource` that records the window of every `ReadAt`.
class RecordingSource : public ByteSource {
 public:
  explicit RecordingSource(const std::string& bytes) : base_(bytes) {}

  std::uint64_t Size() const override { return base_.Size(); }
  Status ReadAt(std::uint64_t offset, std::size_t n,
                char* out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      reads_.emplace_back(offset, n);
    }
    return base_.ReadAt(offset, n, out);
  }

  /// (offset, length) of every read, in arrival order.
  std::vector<std::pair<std::uint64_t, std::size_t>> reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

 private:
  MemoryByteSource base_;
  mutable std::mutex mu_;
  mutable std::vector<std::pair<std::uint64_t, std::size_t>> reads_;
};

class DatabaseIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 20;
    catalog_ = new Catalog(Catalog::Build(catalog_options).value());
    SynthesizerOptions options;
    options.total_images = 300;
    options.image_width = 24;
    options.image_height = 24;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(*catalog_, options).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete catalog_;
  }
  static const Catalog* catalog_;
  static const ImageDatabase* db_;
};

const Catalog* DatabaseIoTest::catalog_ = nullptr;
const ImageDatabase* DatabaseIoTest::db_ = nullptr;

TEST_F(DatabaseIoTest, CatalogRoundTrip) {
  const std::string blob = DatabaseIo::SerializeCatalog(*catalog_);
  StatusOr<Catalog> restored = DatabaseIo::DeserializeCatalog(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_EQ(restored->categories().size(), catalog_->categories().size());
  ASSERT_EQ(restored->subconcepts().size(), catalog_->subconcepts().size());
  ASSERT_EQ(restored->queries().size(), catalog_->queries().size());
  for (std::size_t i = 0; i < catalog_->subconcepts().size(); ++i) {
    const SubConceptSpec& a = catalog_->subconcepts()[i];
    const SubConceptSpec& b = restored->subconcepts()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.recipe.shape, b.recipe.shape);
    EXPECT_EQ(a.recipe.shape_color, b.recipe.shape_color);
    EXPECT_DOUBLE_EQ(a.recipe.shape_size_frac, b.recipe.shape_size_frac);
  }
  for (std::size_t q = 0; q < catalog_->queries().size(); ++q) {
    EXPECT_EQ(restored->queries()[q].name, catalog_->queries()[q].name);
    EXPECT_EQ(restored->queries()[q].AllMembers(),
              catalog_->queries()[q].AllMembers());
  }
}

TEST_F(DatabaseIoTest, DatabaseRoundTrip) {
  const std::string blob = DatabaseIo::SerializeDatabase(*db_);
  StatusOr<ImageDatabase> restored = DatabaseIo::DeserializeDatabase(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_TRUE(restored->has_channel_features());
  ExpectDatabasesEqual(*db_, *restored);
  // Renders reproduce identical pixels.
  EXPECT_TRUE(restored->Render(7) == db_->Render(7));
}

TEST_F(DatabaseIoTest, SerializationIsByteStable) {
  // Serialize → Deserialize → Serialize is the identity on the bytes; the
  // cache key of a snapshot never churns across load/save cycles.
  const std::string blob = DatabaseIo::SerializeDatabase(*db_);
  StatusOr<ImageDatabase> restored = DatabaseIo::DeserializeDatabase(blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(DatabaseIo::SerializeDatabase(*restored), blob);
}

TEST_F(DatabaseIoTest, PropertyRoundTripRandomizedDatabases) {
  // Round-trip a spread of small synthesized databases: category counts,
  // image counts (down to the degenerate 1-per-catalog floor), channel
  // extraction on/off. Every instance must restore structurally equal and
  // re-serialize byte-identically, for v2 and through the v1 compat path.
  const struct {
    std::size_t categories;
    std::size_t images;
    bool channels;
  } cases[] = {
      {12, 40, false}, {14, 64, true}, {16, 1, false}, {20, 150, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("categories=" + std::to_string(c.categories) +
                 " images=" + std::to_string(c.images) +
                 (c.channels ? " channels" : ""));
    CatalogOptions catalog_options;
    catalog_options.num_categories = c.categories;
    const Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = c.images;
    options.image_width = 16;
    options.image_height = 16;
    options.extract_viewpoint_channels = c.channels;
    options.seed = 1000 + c.images;
    const ImageDatabase db =
        DatabaseSynthesizer::Synthesize(catalog, options).value();

    const std::string v2 = DatabaseIo::SerializeDatabase(db);
    StatusOr<ImageDatabase> restored = DatabaseIo::DeserializeDatabase(v2);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectDatabasesEqual(db, *restored);
    EXPECT_EQ(DatabaseIo::SerializeDatabase(*restored), v2);

    const std::string v1 = DatabaseIo::SerializeDatabaseV1(db);
    StatusOr<ImageDatabase> from_v1 = DatabaseIo::DeserializeDatabase(v1);
    ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
    ExpectDatabasesEqual(db, *from_v1);
    EXPECT_EQ(DatabaseIo::SerializeDatabase(*from_v1), v2)
        << "v1 → v2 migration must produce the canonical v2 bytes";
  }
}

TEST_F(DatabaseIoTest, EmptyDatabaseRoundTrips) {
  // The zero-image edge case: empty records, empty feature tables, default
  // normalizer, empty catalog.
  const ImageDatabase empty;
  const std::string blob = DatabaseIo::SerializeDatabase(empty);
  StatusOr<ImageDatabase> restored = DatabaseIo::DeserializeDatabase(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), 0u);
  EXPECT_FALSE(restored->has_channel_features());
  EXPECT_EQ(restored->feature_dim(), 0u);
  EXPECT_EQ(DatabaseIo::SerializeDatabase(*restored), blob);
}

TEST_F(DatabaseIoTest, V1CompatReaderStillReadsLegacyBlobs) {
  const std::string v1 = DatabaseIo::SerializeDatabaseV1(*db_);
  ASSERT_EQ(v1.compare(0, 8, "QDDB0001"), 0);
  StatusOr<ImageDatabase> restored = DatabaseIo::DeserializeDatabase(v1);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectDatabasesEqual(*db_, *restored);
}

TEST_F(DatabaseIoTest, DatabaseWithoutChannelsRoundTrips) {
  SynthesizerOptions options;
  options.total_images = 80;
  options.image_width = 16;
  options.image_height = 16;
  options.extract_viewpoint_channels = false;
  const ImageDatabase small =
      DatabaseSynthesizer::Synthesize(*catalog_, options).value();
  StatusOr<ImageDatabase> restored =
      DatabaseIo::DeserializeDatabase(DatabaseIo::SerializeDatabase(small));
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->has_channel_features());
  EXPECT_EQ(restored->size(), 80u);
}

TEST_F(DatabaseIoTest, RejectsCorruptBlobs) {
  EXPECT_FALSE(DatabaseIo::DeserializeDatabase("").ok());
  EXPECT_FALSE(DatabaseIo::DeserializeDatabase("XXXXXXXXjunk").ok());
  EXPECT_FALSE(DatabaseIo::DeserializeCatalog("YYYYYYYYjunk").ok());
  std::string blob = DatabaseIo::SerializeDatabase(*db_);
  blob.resize(blob.size() / 3);
  EXPECT_FALSE(DatabaseIo::DeserializeDatabase(blob).ok());
}

TEST_F(DatabaseIoTest, ReportsTypedStatuses) {
  const std::string blob = DatabaseIo::SerializeDatabase(*db_);
  EXPECT_EQ(DatabaseIo::DeserializeDatabase("").status().code(),
            StatusCode::kTruncated);
  EXPECT_EQ(DatabaseIo::DeserializeDatabase("XXXXXXXXjunk").status().code(),
            StatusCode::kCorrupt);
  EXPECT_EQ(DatabaseIo::DeserializeDatabase(blob.substr(0, blob.size() / 2))
                .status()
                .code(),
            StatusCode::kTruncated);
  // An unknown future version is neither corrupt nor truncated.
  std::string future = blob;
  future[8] = 99;  // version field low byte
  EXPECT_EQ(DatabaseIo::DeserializeDatabase(future).status().code(),
            StatusCode::kVersionMismatch);
}

TEST_F(DatabaseIoTest, HostileLengthFieldsFailFastWithoutOverAllocating) {
  // Regression for the v1-era bug class: counts/lengths embedded in the
  // byte stream were trusted before any bounds check, so a hostile field
  // could drive a multi-gigabyte resize or an overflowing multiply. Each
  // overwrite below plants an absurd length; the loader must reject the
  // blob (typed), not allocate for it. With checksums enabled the CRC
  // catches the edit first, so the decode-layer guards are exercised via
  // the catalog path (unchecksummed) and the v1 compat path.
  std::string catalog_blob = DatabaseIo::SerializeCatalog(*catalog_);
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(catalog_blob.data() + 8, &huge, sizeof(huge));
  const StatusOr<Catalog> catalog = DatabaseIo::DeserializeCatalog(catalog_blob);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kTruncated);

  // v1 blob with the record count replaced: the count sits right after the
  // catalog body and the two 4-byte dimensions.
  std::string v1 = DatabaseIo::SerializeDatabaseV1(*db_);
  const std::string clean_catalog = DatabaseIo::SerializeCatalog(*catalog_);
  const std::size_t catalog_body = clean_catalog.size() - 8;
  const std::size_t count_at = 8 + catalog_body + 8;
  std::memcpy(v1.data() + count_at, &huge, sizeof(huge));
  const StatusOr<ImageDatabase> db = DatabaseIo::DeserializeDatabase(v1);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kTruncated);
}

TEST_F(DatabaseIoTest, HostileChunkCountInsideVerifiedChunkIsRejected) {
  // Bypass the CRC shield (verify_checksums=false) to prove the decode
  // layer itself is hardened, not just the checksum in front of it.
  std::string blob = DatabaseIo::SerializeDatabase(*db_);
  StatusOr<SnapshotInfo> info =
      DatabaseIo::InspectSnapshot(MemoryByteSource(blob));
  ASSERT_TRUE(info.ok());
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    if (chunk.id != "FTB0") continue;
    std::memcpy(blob.data() + chunk.offset, &huge, sizeof(huge));
  }
  MemoryByteSource source(blob);
  SnapshotLoadOptions options;
  options.verify_checksums = false;
  const StatusOr<ImageDatabase> db =
      DatabaseIo::LoadDatabaseFrom(source, options);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorrupt);
}

TEST_F(DatabaseIoTest, FeatureChunksStreamThroughTheReaderWindow) {
  // A feature table decodes as its reader windows arrive: every byte of a
  // feature chunk is read once, and no read is longer than the window, so
  // the chunk is never held whole.
  const std::string blob = DatabaseIo::SerializeDatabase(*db_);
  const StatusOr<SnapshotInfo> info =
      DatabaseIo::InspectSnapshot(MemoryByteSource(blob));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  RecordingSource source(blob);
  const StatusOr<ImageDatabase> db =
      DatabaseIo::LoadDatabaseFrom(source, SnapshotLoadOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ExpectDatabasesEqual(*db, *db_);

  std::size_t feature_chunks = 0;
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    if (chunk.id.rfind("FTB", 0) != 0) continue;
    ++feature_chunks;
    ASSERT_GT(chunk.length, ByteReader::kWindowBytes)
        << chunk.id << " fits one window; the corpus is too small to tell";
    std::uint64_t read = 0;
    for (const auto& [offset, n] : source.reads()) {
      if (offset < chunk.offset || offset >= chunk.offset + chunk.length) {
        continue;
      }
      EXPECT_LE(n, ByteReader::kWindowBytes)
          << chunk.id << " read at offset " << offset;
      read += n;
    }
    EXPECT_EQ(read, chunk.length) << chunk.id;
  }
  EXPECT_EQ(feature_chunks, 4u);
}

TEST_F(DatabaseIoTest, InspectSnapshotListsChunksAndChecksums) {
  const std::string blob = DatabaseIo::SerializeDatabase(*db_);
  StatusOr<SnapshotInfo> info =
      DatabaseIo::InspectSnapshot(MemoryByteSource(blob));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 2);
  EXPECT_EQ(info->file_size, blob.size());
  // Channel-extracted database: catalog, meta, records, 4 feature tables,
  // 4 normalizers.
  ASSERT_EQ(info->chunks.size(), 11u);
  EXPECT_EQ(info->chunks[0].id, "CATL");
  EXPECT_EQ(info->chunks[1].id, "META");
  EXPECT_EQ(info->chunks[2].id, "RECS");
  std::uint64_t end = 0;
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    EXPECT_TRUE(chunk.crc_ok) << chunk.id;
    EXPECT_GE(chunk.offset, end) << "chunks must not overlap";
    end = chunk.offset + chunk.length;
  }
  EXPECT_EQ(end, blob.size());

  // Flip one payload byte: exactly that chunk's checksum goes bad.
  std::string corrupted = blob;
  const SnapshotChunkInfo& target = info->chunks[3];
  corrupted[target.offset + target.length / 2] ^= 0x10;
  StatusOr<SnapshotInfo> after =
      DatabaseIo::InspectSnapshot(MemoryByteSource(corrupted));
  ASSERT_TRUE(after.ok());
  for (std::size_t i = 0; i < after->chunks.size(); ++i) {
    EXPECT_EQ(after->chunks[i].crc_ok, i != 3) << after->chunks[i].id;
  }
}

TEST_F(DatabaseIoTest, EmbeddedRfsBlobRoundTrips) {
  const std::string rfs_payload = "opaque rfs bytes \x01\x02\x03";
  const std::string with_rfs =
      DatabaseIo::SerializeDatabase(*db_, &rfs_payload);
  const std::string without_rfs = DatabaseIo::SerializeDatabase(*db_);

  // The database decodes identically with or without the extra section.
  StatusOr<ImageDatabase> restored =
      DatabaseIo::DeserializeDatabase(with_rfs);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(DatabaseIo::SerializeDatabase(*restored), without_rfs);

  // The chunk is located and checksummed in place; a slice over the same
  // source reads back exactly the embedded bytes.
  const MemoryByteSource source(with_rfs);
  StatusOr<SnapshotChunkInfo> chunk = DatabaseIo::FindEmbeddedRfs(source);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(chunk->id, "RFS0");
  EXPECT_TRUE(chunk->crc_ok);
  const SliceByteSource slice(source, chunk->offset, chunk->length);
  std::string blob(slice.Size(), '\0');
  ASSERT_TRUE(slice.ReadAt(0, blob.size(), blob.data()).ok());
  EXPECT_EQ(blob, rfs_payload);
  EXPECT_EQ(slice.ReadAt(1, blob.size(), blob.data()).code(),
            StatusCode::kTruncated);

  // A flipped payload bit fails the streamed checksum.
  std::string damaged = with_rfs;
  damaged[chunk->offset + 2] ^= 0x04;
  EXPECT_EQ(DatabaseIo::FindEmbeddedRfs(MemoryByteSource(damaged))
                .status()
                .code(),
            StatusCode::kCorrupt);

  StatusOr<SnapshotChunkInfo> missing =
      DatabaseIo::FindEmbeddedRfs(MemoryByteSource(without_rfs));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/qdcbir_db_test.bin";
  ASSERT_TRUE(DatabaseIo::SaveDatabase(*db_, path).ok());
  StatusOr<ImageDatabase> loaded = DatabaseIo::LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), db_->size());
  std::remove(path.c_str());
  EXPECT_FALSE(DatabaseIo::LoadDatabase("/nonexistent/db.bin").ok());
}

}  // namespace
}  // namespace qdcbir
