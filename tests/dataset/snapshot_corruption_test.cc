#include <cstddef>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qdcbir/core/crc32c.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/synthesizer.h"
#include "support/fault_stream.h"

namespace qdcbir {
namespace {

using testsupport::FaultInjectingSource;
using testsupport::FaultSpec;
using testsupport::FlipBit;
using testsupport::SampleOffsets;
using testsupport::TruncateAt;

/// The v2 snapshot `blob` with chunk `id`'s payload passed through `edit`
/// and every offset and checksum recomputed, the directory's included: a
/// forgery that every integrity check accepts.
std::string ForgeChunk(const std::string& blob, const std::string& id,
                       const std::function<void(std::string*)>& edit) {
  constexpr std::size_t kEntries = 16;  // magic, version, chunk count
  constexpr std::size_t kEntryBytes = 28;
  std::uint32_t count = 0;
  std::memcpy(&count, blob.data() + 12, sizeof(count));
  const std::size_t dir_bytes = kEntries + count * kEntryBytes + 4;
  std::string out = blob.substr(0, dir_bytes);
  std::string payloads;
  for (std::uint32_t i = 0; i < count; ++i) {
    char* entry = out.data() + kEntries + i * kEntryBytes;
    std::uint64_t offset = 0, length = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&length, entry + 16, sizeof(length));
    std::string payload = blob.substr(offset, length);
    if (std::string(entry, 4) == id) edit(&payload);
    offset = dir_bytes + payloads.size();
    length = payload.size();
    const std::uint32_t crc = Crc32c::Compute(payload);
    std::memcpy(entry + 8, &offset, sizeof(offset));
    std::memcpy(entry + 16, &length, sizeof(length));
    std::memcpy(entry + 24, &crc, sizeof(crc));
    payloads += payload;
  }
  const std::uint32_t dir_crc = Crc32c::Compute(out.data(), dir_bytes - 4);
  std::memcpy(out.data() + dir_bytes - 4, &dir_crc, sizeof(dir_crc));
  return out + payloads;
}

/// Cuts the last double off row `row` of a feature-table payload (a row
/// count, then each row as its length and its doubles).
void ShortenRow(std::string* table, std::size_t row) {
  std::size_t at = sizeof(std::uint64_t);
  std::uint64_t n = 0;
  for (std::size_t i = 0;; ++i) {
    std::memcpy(&n, table->data() + at, sizeof(n));
    if (i == row) break;
    at += sizeof(n) + n * sizeof(double);
  }
  --n;
  std::memcpy(table->data() + at, &n, sizeof(n));
  table->erase(at + sizeof(n) + n * sizeof(double), sizeof(double));
}

/// The corruption contract: a damaged snapshot must always yield a typed
/// I/O error — never a crash, never an OOM, and never a silently wrong
/// database. Each sweep below damages a snapshot in a different way at
/// offsets covering every chunk boundary plus seeded interior points, and
/// asserts the exact Status family that class of damage must produce.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 12;
    const Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 60;
    options.image_width = 12;
    options.image_height = 12;
    const ImageDatabase db =
        DatabaseSynthesizer::Synthesize(catalog, options).value();
    const std::string rfs = "embedded-rfs-payload";
    blob_ = new std::string(DatabaseIo::SerializeDatabase(db, &rfs));
    info_ = new SnapshotInfo(
        DatabaseIo::InspectSnapshot(MemoryByteSource(*blob_)).value());
  }
  static void TearDownTestSuite() {
    delete blob_;
    delete info_;
  }

  /// Every structurally interesting offset: chunk starts and ends, the
  /// directory header, plus `interior` seeded probe points. Deduplicated
  /// and sorted so failures name a reproducible offset.
  static std::vector<std::size_t> ProbeOffsets(std::size_t interior) {
    std::set<std::size_t> probes;
    probes.insert(0);           // inside the magic
    probes.insert(8);           // version field
    probes.insert(12);          // chunk count field
    for (const SnapshotChunkInfo& chunk : info_->chunks) {
      probes.insert(chunk.offset);
      probes.insert(chunk.offset + chunk.length - 1);
      probes.insert(chunk.offset + chunk.length);  // first byte of the next
    }
    Rng rng(2026);
    for (const std::size_t off : SampleOffsets(rng, blob_->size(), interior)) {
      probes.insert(off);
    }
    std::vector<std::size_t> out(probes.begin(), probes.end());
    while (!out.empty() && out.back() >= blob_->size()) out.pop_back();
    return out;
  }

  static const std::string* blob_;
  static const SnapshotInfo* info_;
};

const std::string* SnapshotCorruptionTest::blob_ = nullptr;
const SnapshotInfo* SnapshotCorruptionTest::info_ = nullptr;

TEST_F(SnapshotCorruptionTest, TruncationAnywhereIsExactlyTruncated) {
  // Cutting the file at any point — a chunk boundary or mid-payload — is a
  // distinct condition from bit rot and must be reported as such.
  for (const std::size_t cut : ProbeOffsets(/*interior=*/48)) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const StatusOr<ImageDatabase> db =
        DatabaseIo::DeserializeDatabase(TruncateAt(*blob_, cut));
    ASSERT_FALSE(db.ok()) << "truncated snapshot loaded successfully";
    EXPECT_EQ(db.status().code(), StatusCode::kTruncated)
        << db.status().ToString();
  }
}

TEST_F(SnapshotCorruptionTest, BitFlipAnywhereIsDetectedAndTyped) {
  // Single-bit damage is always caught (CRC32C detects all 1-bit errors)
  // and maps to one of the three snapshot error codes. Flips inside the
  // version field legitimately read as a different version — that is what
  // kVersionMismatch is for — and everything else is kCorrupt. kTruncated
  // can surface only from flips in the chunk-count field, which the
  // directory bounds checks hit before the directory checksum.
  for (const std::size_t offset : ProbeOffsets(/*interior=*/24)) {
    for (const int bit : {0, 5, 7}) {
      SCOPED_TRACE("flip bit " + std::to_string(bit) + " of byte " +
                   std::to_string(offset));
      const StatusOr<ImageDatabase> db =
          DatabaseIo::DeserializeDatabase(FlipBit(*blob_, offset, bit));
      ASSERT_FALSE(db.ok()) << "bit flip went undetected";
      const StatusCode code = db.status().code();
      EXPECT_TRUE(code == StatusCode::kCorrupt ||
                  code == StatusCode::kTruncated ||
                  code == StatusCode::kVersionMismatch)
          << db.status().ToString();
      if (offset >= 8 && offset < 12) {
        EXPECT_EQ(code, StatusCode::kVersionMismatch) << db.status().ToString();
      } else if (offset < 8 || offset >= 16) {
        EXPECT_EQ(code, StatusCode::kCorrupt) << db.status().ToString();
      }
    }
  }
}

TEST_F(SnapshotCorruptionTest, EveryFailedReadOperationPropagatesIoError) {
  // First count how many positioned reads a clean load issues, then replay
  // the load failing each one in turn. Whichever read dies, the loader must
  // surface the device error — a load can never quietly succeed with a
  // chunk it did not read.
  MemoryByteSource base(*blob_);
  FaultInjectingSource clean(base, FaultSpec{});
  ASSERT_TRUE(DatabaseIo::LoadDatabaseFrom(clean, SnapshotLoadOptions{}).ok());
  const std::uint64_t total_ops = clean.ops();
  ASSERT_GT(total_ops, 3u);

  for (std::uint64_t op = 0; op < total_ops; ++op) {
    SCOPED_TRACE("failing read operation " + std::to_string(op));
    FaultSpec spec;
    spec.fail_op = static_cast<std::int64_t>(op);
    FaultInjectingSource source(base, spec);
    const StatusOr<ImageDatabase> db =
        DatabaseIo::LoadDatabaseFrom(source, SnapshotLoadOptions{});
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kIoError)
        << db.status().ToString();
  }
}

TEST_F(SnapshotCorruptionTest, ShortReadsSurfaceAsTruncated) {
  MemoryByteSource base(*blob_);
  FaultInjectingSource clean(base, FaultSpec{});
  ASSERT_TRUE(DatabaseIo::LoadDatabaseFrom(clean, SnapshotLoadOptions{}).ok());
  const std::uint64_t total_ops = clean.ops();

  for (std::uint64_t op = 0; op < total_ops; ++op) {
    SCOPED_TRACE("short read at operation " + std::to_string(op));
    FaultSpec spec;
    spec.short_read_op = static_cast<std::int64_t>(op);
    FaultInjectingSource source(base, spec);
    const StatusOr<ImageDatabase> db =
        DatabaseIo::LoadDatabaseFrom(source, SnapshotLoadOptions{});
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kTruncated)
        << db.status().ToString();
  }
}

TEST_F(SnapshotCorruptionTest, RaggedFeatureRowsAreCorrupt) {
  // Row 5 of FTB0 one double short, every checksum recomputed: the file is
  // intact but the table is not. Rows must share one length, because the
  // feature store takes its dimensionality from row 0 and a sweep would
  // read past the short row.
  const std::string forged = ForgeChunk(
      *blob_, "FTB0", [](std::string* table) { ShortenRow(table, 5); });
  const StatusOr<SnapshotInfo> info =
      DatabaseIo::InspectSnapshot(MemoryByteSource(forged));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    EXPECT_TRUE(chunk.crc_ok) << chunk.id;
  }
  const StatusOr<ImageDatabase> db = DatabaseIo::DeserializeDatabase(forged);
  ASSERT_FALSE(db.ok()) << "ragged feature table loaded";
  EXPECT_EQ(db.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(db.status().message(), "chunk FTB0 malformed");

  // Every row of a viewpoint channel one double short: consistent in
  // itself, but not with the main table the queries come from.
  const std::string narrow =
      ForgeChunk(*blob_, "FTB1", [](std::string* table) {
        std::uint64_t rows = 0;
        std::memcpy(&rows, table->data(), sizeof(rows));
        for (std::size_t row = 0; row < rows; ++row) ShortenRow(table, row);
      });
  const StatusOr<ImageDatabase> channel =
      DatabaseIo::DeserializeDatabase(narrow);
  ASSERT_FALSE(channel.ok()) << "narrow channel table loaded";
  EXPECT_EQ(channel.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(channel.status().message(),
            "channel feature table dimension mismatch");
}

TEST_F(SnapshotCorruptionTest, ChecksumMismatchWinsOverAMalformedBody) {
  // The decoder stops at the first malformed field, but the checksum still
  // covers the whole chunk: a chunk that is both malformed and damaged
  // reports the damage.
  const std::string ragged = ForgeChunk(
      *blob_, "FTB0", [](std::string* table) { ShortenRow(table, 5); });
  const StatusOr<SnapshotInfo> info =
      DatabaseIo::InspectSnapshot(MemoryByteSource(ragged));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    if (chunk.id != "FTB0") continue;
    // A flip past the short row, where the decode never reads; then a row
    // count far past the chunk's end, which stops the decode at byte 8.
    std::string flipped = FlipBit(ragged, chunk.offset + chunk.length - 1, 4);
    std::string counted = ragged;
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(counted.data() + chunk.offset, &huge, sizeof(huge));
    for (const std::string* damaged : {&flipped, &counted}) {
      const StatusOr<ImageDatabase> db =
          DatabaseIo::DeserializeDatabase(*damaged);
      ASSERT_FALSE(db.ok());
      EXPECT_EQ(db.status().code(), StatusCode::kCorrupt);
      EXPECT_EQ(db.status().message(), "chunk FTB0 checksum mismatch");
    }
    return;
  }
  FAIL() << "no FTB0 chunk";
}

TEST_F(SnapshotCorruptionTest, V1BlobsGetTypedErrorsToo) {
  // The compat path predates checksums, so it cannot distinguish bit rot
  // from hostility — but it must still never crash and must type whatever
  // it reports. Truncations are exact; flips either fail typed or decode to
  // a structurally valid database (no checksum ⇒ no detection guarantee),
  // which is precisely the weakness the v2 format exists to close.
  CatalogOptions catalog_options;
  catalog_options.num_categories = 11;
  const Catalog catalog = Catalog::Build(catalog_options).value();
  SynthesizerOptions options;
  options.total_images = 30;
  options.image_width = 8;
  options.image_height = 8;
  options.extract_viewpoint_channels = false;
  const ImageDatabase db =
      DatabaseSynthesizer::Synthesize(catalog, options).value();
  const std::string v1 = DatabaseIo::SerializeDatabaseV1(db);

  Rng rng(77);
  for (const std::size_t cut : SampleOffsets(rng, v1.size(), 32)) {
    SCOPED_TRACE("v1 cut at " + std::to_string(cut));
    const StatusOr<ImageDatabase> loaded =
        DatabaseIo::DeserializeDatabase(TruncateAt(v1, cut));
    ASSERT_FALSE(loaded.ok());
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kTruncated || code == StatusCode::kCorrupt)
        << loaded.status().ToString();
  }
  for (const std::size_t offset : SampleOffsets(rng, v1.size(), 32)) {
    SCOPED_TRACE("v1 flip at " + std::to_string(offset));
    const StatusOr<ImageDatabase> loaded =
        DatabaseIo::DeserializeDatabase(FlipBit(v1, offset, 3));
    if (!loaded.ok()) {
      const StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kTruncated ||
                  code == StatusCode::kCorrupt)
          << loaded.status().ToString();
    }
  }
}

}  // namespace
}  // namespace qdcbir
