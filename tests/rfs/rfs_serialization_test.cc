#include "qdcbir/rfs/rfs_serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "qdcbir/core/crc32c.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "support/fault_stream.h"

namespace qdcbir {
namespace {

using testsupport::FaultInjectingSource;
using testsupport::FaultSpec;
using testsupport::SampleOffsets;
using testsupport::TruncateAt;

RfsTree MakeTree(std::uint64_t seed, int points_count = 400, int dim = 3,
                 RfsBuildStrategy strategy = RfsBuildStrategy::kClustered) {
  Rng rng(seed);
  std::vector<FeatureVector> points;
  for (int i = 0; i < points_count; ++i) {
    FeatureVector p(static_cast<std::size_t>(dim));
    for (int d = 0; d < dim; ++d) p[d] = rng.UniformDouble(-10, 10);
    points.push_back(std::move(p));
  }
  RfsBuildOptions options;
  options.tree.max_entries = 12;
  options.tree.min_entries = 5;
  options.strategy = strategy;
  return RfsBuilder::Build(std::move(points), options).value();
}

StatusCode DecodeCode(const std::string& bytes) {
  return RfsSerializer::Deserialize(bytes).status().code();
}

TEST(RfsSerializationTest, RoundTripPreservesEverything) {
  const RfsTree original = MakeTree(3);
  const std::string blob = RfsSerializer::Serialize(original);
  StatusOr<RfsTree> restored = RfsSerializer::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->num_images(), original.num_images());
  EXPECT_EQ(restored->height(), original.height());
  EXPECT_EQ(restored->root(), original.root());
  EXPECT_TRUE(restored->CheckInvariants().ok())
      << restored->CheckInvariants().ToString();

  // Features identical.
  for (ImageId i = 0; i < original.num_images(); ++i) {
    EXPECT_EQ(restored->feature(i), original.feature(i));
    EXPECT_EQ(restored->LeafOf(i), original.LeafOf(i));
  }

  // Node annotations identical.
  const auto levels = original.index().NodesByLevel();
  for (const auto& level_nodes : levels) {
    for (const NodeId id : level_nodes) {
      const RfsTree::NodeInfo& a = original.info(id);
      const RfsTree::NodeInfo& b = restored->info(id);
      EXPECT_EQ(a.level, b.level);
      EXPECT_EQ(a.parent, b.parent);
      EXPECT_EQ(a.children, b.children);
      EXPECT_EQ(a.representatives, b.representatives);
      EXPECT_EQ(a.rep_origin, b.rep_origin);
      EXPECT_EQ(a.subtree_size, b.subtree_size);
      EXPECT_EQ(a.center, b.center);
      EXPECT_DOUBLE_EQ(a.diagonal, b.diagonal);
    }
  }
}

TEST(RfsSerializationTest, RestoredTreeAnswersIdenticalKnnQueries) {
  const RfsTree original = MakeTree(5);
  StatusOr<RfsTree> restored =
      RfsSerializer::Deserialize(RfsSerializer::Serialize(original));
  ASSERT_TRUE(restored.ok());
  Rng rng(9);
  for (int q = 0; q < 5; ++q) {
    FeatureVector query{rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10),
                        rng.UniformDouble(-10, 10)};
    const auto a = original.index().KnnSearch(query, 10);
    const auto b = restored->index().KnnSearch(query, 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_DOUBLE_EQ(a[i].distance_squared, b[i].distance_squared);
    }
  }
}

/// Offset of the first byte where `a` and `b` differ, or npos if equal.
std::size_t FirstDifference(const std::string& a, const std::string& b) {
  const auto at = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (at.first == a.end() && at.second == b.end()) return std::string::npos;
  return static_cast<std::size_t>(at.first - a.begin());
}

TEST(RfsSerializationTest, ReserializeIsByteIdentical) {
  // RFS bytes are canonical: leaf entries hold only image ids in memory
  // (the writer rebuilds each leaf's lo/hi from the store) and annotations
  // are written in node-id order, so a decoded tree writes back exactly
  // the bytes it was read from, whether it owns its store or shares one.
  for (const RfsBuildStrategy strategy :
       {RfsBuildStrategy::kClustered, RfsBuildStrategy::kTgsBulkLoad,
        RfsBuildStrategy::kInsertion}) {
    SCOPED_TRACE(RfsBuildStrategyName(strategy));
    const RfsTree tree = MakeTree(19, 300, 4, strategy);
    const std::string bytes = RfsSerializer::Serialize(tree);
    const StatusOr<RfsTree> owning = RfsSerializer::Deserialize(bytes);
    ASSERT_TRUE(owning.ok()) << owning.status().ToString();
    EXPECT_EQ(FirstDifference(RfsSerializer::Serialize(*owning), bytes),
              std::string::npos);
    const StatusOr<RfsTree> shared = RfsSerializer::Decode(
        MemoryByteSource(bytes), tree.feature_store());
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    EXPECT_EQ(FirstDifference(RfsSerializer::Serialize(*shared), bytes),
              std::string::npos);
  }
}

TEST(RfsSerializationTest, BytesMatchRecordedDigests) {
  // The RFS format is frozen: each strategy's tree over one fixed corpus
  // must serialize to the bytes whose CRC32C was recorded here, however
  // the tree holds its MBRs in memory.
  const struct {
    RfsBuildStrategy strategy;
    std::uint32_t crc32c;
  } kCases[] = {
      {RfsBuildStrategy::kClustered, 0x1bee3b7du},
      {RfsBuildStrategy::kTgsBulkLoad, 0x7e1c42bfu},
      {RfsBuildStrategy::kInsertion, 0x7fe94f94u},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(RfsBuildStrategyName(c.strategy));
    const std::string bytes =
        RfsSerializer::Serialize(MakeTree(23, 500, 5, c.strategy));
    EXPECT_EQ(Crc32c::Compute(bytes), c.crc32c)
        << std::hex << Crc32c::Compute(bytes);
  }
}

TEST(RfsSerializationTest, RejectsBadMagic) {
  EXPECT_FALSE(RfsSerializer::Deserialize("").ok());
  EXPECT_FALSE(RfsSerializer::Deserialize("BADMAGIC rest").ok());
}

TEST(RfsSerializationTest, RejectsTruncatedBlob) {
  const RfsTree tree = MakeTree(7);
  std::string blob = RfsSerializer::Serialize(tree);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(RfsSerializer::Deserialize(blob).ok());
}

TEST(RfsSerializationTest, FileRoundTrip) {
  const RfsTree tree = MakeTree(11);
  const std::string path = ::testing::TempDir() + "/qdcbir_rfs_test.bin";
  ASSERT_TRUE(RfsSerializer::SaveToFile(tree, path).ok());
  StatusOr<RfsTree> loaded = RfsSerializer::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_images(), tree.num_images());
  EXPECT_TRUE(loaded->CheckInvariants().ok());
  std::remove(path.c_str());
}

TEST(RfsSerializationTest, SaveToUnwritablePathFails) {
  const RfsTree tree = MakeTree(13);
  EXPECT_FALSE(
      RfsSerializer::SaveToFile(tree, "/nonexistent/dir/file.bin").ok());
  EXPECT_FALSE(RfsSerializer::LoadFromFile("/nonexistent/file.bin").ok());
}

/// Byte offsets of the fixed fields of a serialized tree, for forging them.
struct BlobLayout {
  std::size_t features = 24;  ///< after magic, num_images, dim
  std::size_t index = 0;      ///< max_entries; node_slots at +24, root +32
  std::size_t first_node = 0; ///< presence byte of slot 0
  std::size_t info = 0;       ///< info_count
};

BlobLayout LayoutOf(const RfsTree& tree, const std::string& blob) {
  BlobLayout layout;
  const std::size_t dim = tree.feature_dim();
  layout.index = 24 + tree.num_images() * dim * sizeof(double);
  layout.first_node = layout.index + 44;
  std::size_t info_bytes = 8;
  const auto levels = tree.index().NodesByLevel();
  for (const auto& nodes : levels) {
    for (const NodeId id : nodes) {
      const RfsTree::NodeInfo& info = tree.info(id);
      info_bytes += 44 + 4 * info.children.size() +
                    8 * info.representatives.size() + 8 * dim;
    }
  }
  layout.info = blob.size() - info_bytes;
  return layout;
}

template <typename T>
std::string Forge(std::string blob, std::size_t offset, T value) {
  std::memcpy(blob.data() + offset, &value, sizeof(T));
  return blob;
}

template <typename T>
T Peek(const std::string& blob, std::size_t offset) {
  T value;
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  return value;
}

/// Offset of the first entry of the first leaf node, walking the node
/// slots: a free slot is its presence byte; a node is 17 header bytes
/// (presence, level, parent, entry count) followed by its entries.
std::size_t FirstLeafEntry(const RfsTree& tree, const std::string& blob,
                           const BlobLayout& layout) {
  const std::size_t entry_bytes = 8 + 2 * tree.feature_dim() * sizeof(double);
  const std::uint64_t slots = Peek<std::uint64_t>(blob, layout.index + 24);
  std::size_t slot = layout.first_node;
  for (std::uint64_t s = 0; s < slots; ++s) {
    if (Peek<std::uint8_t>(blob, slot) == 0) {
      ++slot;
      continue;
    }
    if (Peek<std::int32_t>(blob, slot + 1) == 0) return slot + 17;
    slot += 17 + Peek<std::uint64_t>(blob, slot + 9) * entry_bytes;
  }
  return 0;
}

/// The corruption contract of the streaming decoder: damaged RFS bytes
/// yield a typed error — `kTruncated` when they end early or declare more
/// than they hold, `kCorrupt` when a field breaks the structure — and
/// never a crash or an allocation sized by a hostile field.
class RfsCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 1500 x 12 doubles of features alone span several decode buffers.
    tree_ = new RfsTree(MakeTree(17, 1500, 12));
    blob_ = new std::string(RfsSerializer::Serialize(*tree_));
    layout_ = new BlobLayout(LayoutOf(*tree_, *blob_));
  }
  static void TearDownTestSuite() {
    delete layout_;
    delete blob_;
    delete tree_;
  }

  static const RfsTree* tree_;
  static const std::string* blob_;
  static const BlobLayout* layout_;
};

const RfsTree* RfsCorruptionTest::tree_ = nullptr;
const std::string* RfsCorruptionTest::blob_ = nullptr;
const BlobLayout* RfsCorruptionTest::layout_ = nullptr;

TEST_F(RfsCorruptionTest, LayoutMatchesTheWriter) {
  // Guards the forging tests below: the computed offsets land on the
  // fields they name.
  EXPECT_EQ(Peek<std::uint64_t>(*blob_, 8), tree_->num_images());
  EXPECT_EQ(Peek<std::uint64_t>(*blob_, 16), tree_->feature_dim());
  EXPECT_EQ(Peek<std::uint32_t>(*blob_, layout_->index + 32), tree_->root());
  EXPECT_EQ(Peek<std::uint8_t>(*blob_, layout_->first_node), 1u);
  EXPECT_EQ(Peek<std::uint64_t>(*blob_, layout_->info),
            tree_->ComputeStats().node_count);
  ASSERT_TRUE(RfsSerializer::Deserialize(*blob_).ok());
}

TEST_F(RfsCorruptionTest, TruncationAnywhereIsExactlyTruncated) {
  std::set<std::size_t> cuts = {0,  4,  8,  16, 24, layout_->index,
                                layout_->index + 24, layout_->first_node,
                                layout_->info, layout_->info + 8,
                                blob_->size() - 1};
  Rng rng(2026);
  for (const std::size_t off : SampleOffsets(rng, blob_->size(), 64)) {
    cuts.insert(off);
  }
  const MemoryByteSource base(*blob_);
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    EXPECT_EQ(DecodeCode(TruncateAt(*blob_, cut)), StatusCode::kTruncated);
    FaultSpec spec;
    spec.truncate_at = static_cast<std::int64_t>(cut);
    const FaultInjectingSource cut_source(base, spec);
    const StatusOr<RfsTree> tree =
        RfsSerializer::Decode(cut_source, tree_->feature_store());
    ASSERT_FALSE(tree.ok());
    EXPECT_EQ(tree.status().code(), StatusCode::kTruncated)
        << tree.status().ToString();
  }
}

TEST_F(RfsCorruptionTest, ForgedDimIsRejected) {
  const std::uint64_t dim = tree_->feature_dim();
  for (const std::uint64_t forged :
       {std::uint64_t{0}, dim - 1, dim + 1, 2 * dim, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    SCOPED_TRACE("dim " + std::to_string(forged));
    const std::string bytes = Forge(*blob_, 16, forged);
    const StatusCode code = DecodeCode(bytes);
    EXPECT_TRUE(code == StatusCode::kTruncated || code == StatusCode::kCorrupt)
        << StatusCodeToString(code);
    // Against the store it was built over, a wrong dim disagrees up front.
    const StatusOr<RfsTree> shared = RfsSerializer::Decode(
        MemoryByteSource(bytes), tree_->feature_store());
    ASSERT_FALSE(shared.ok());
    EXPECT_TRUE(shared.status().code() == StatusCode::kTruncated ||
                shared.status().code() == StatusCode::kCorrupt);
  }
  EXPECT_EQ(DecodeCode(Forge(*blob_, 16, std::uint64_t{0})),
            StatusCode::kCorrupt);
  EXPECT_EQ(DecodeCode(Forge(*blob_, 16, std::uint64_t{1} << 40)),
            StatusCode::kTruncated);
}

TEST_F(RfsCorruptionTest, ForgedCountsAreTruncatedBeforeAllocating) {
  // Each count claims far more elements than the bytes left could hold;
  // the decoder must refuse before sizing anything by it.
  const std::uint64_t huge = std::uint64_t{1} << 60;
  const std::size_t first_info_children = layout_->info + 8 + 12;
  const std::size_t first_entry_count = layout_->first_node + 9;
  for (const std::size_t offset :
       {std::size_t{8}, layout_->index + 24, first_entry_count, layout_->info,
        first_info_children}) {
    SCOPED_TRACE("count at " + std::to_string(offset));
    EXPECT_EQ(DecodeCode(Forge(*blob_, offset, huge)), StatusCode::kTruncated);
    EXPECT_EQ(DecodeCode(Forge(*blob_, offset, ~std::uint64_t{0})),
              StatusCode::kTruncated);
  }
}

TEST_F(RfsCorruptionTest, OutOfRangeIdsAreCorrupt) {
  const std::uint64_t slots = Peek<std::uint64_t>(*blob_, layout_->index + 24);
  const auto forged_u32 = [&](std::size_t offset, std::uint32_t value) {
    return DecodeCode(Forge(*blob_, offset, value));
  };
  // The root, past the slot table.
  EXPECT_EQ(forged_u32(layout_->index + 32,
                       static_cast<std::uint32_t>(slots) + 3),
            StatusCode::kCorrupt);
  // Slot 0's first entry: an image past the table (leaf) or a node past
  // the slots (internal).
  const bool leaf = Peek<std::int32_t>(*blob_, layout_->first_node + 1) == 0;
  const std::size_t first_entry = layout_->first_node + 17;
  EXPECT_EQ(leaf ? forged_u32(first_entry + 4,
                              static_cast<std::uint32_t>(tree_->num_images()))
                 : forged_u32(first_entry,
                              static_cast<std::uint32_t>(slots) + 1),
            StatusCode::kCorrupt);
  // The first annotation: its node id and its first representative.
  const std::size_t info = layout_->info + 8;
  EXPECT_EQ(forged_u32(info, static_cast<std::uint32_t>(slots) + 7),
            StatusCode::kCorrupt);
  const NodeId first_id = Peek<std::uint32_t>(*blob_, info);
  const std::size_t first_rep =
      info + 20 + 4 * tree_->info(first_id).children.size() + 8;
  EXPECT_EQ(forged_u32(first_rep,
                       static_cast<std::uint32_t>(tree_->num_images()) + 9),
            StatusCode::kCorrupt);
  // A presence flag that is neither 0 nor 1, and trailing garbage.
  EXPECT_EQ(DecodeCode(Forge(*blob_, layout_->first_node, std::uint8_t{7})),
            StatusCode::kCorrupt);
  EXPECT_EQ(DecodeCode(*blob_ + "x"), StatusCode::kCorrupt);
  EXPECT_EQ(DecodeCode("BADMAGIC" + blob_->substr(8)), StatusCode::kCorrupt);
}

TEST_F(RfsCorruptionTest, LeafEntryPointMustEqualItsFeatureRow) {
  // A leaf entry's lo and hi are its image's feature row, written from the
  // store; one flipped bit in either disagrees with the features.
  const std::size_t first = FirstLeafEntry(*tree_, *blob_, *layout_);
  ASSERT_NE(first, 0u);
  const std::size_t row_bytes = tree_->feature_dim() * sizeof(double);
  const ImageId image = Peek<std::uint32_t>(*blob_, first + 4);
  ASSERT_EQ(std::memcmp(blob_->data() + first + 8,
                        tree_->feature(image).data(), row_bytes),
            0);
  for (const std::size_t offset :
       {first + 8, first + 8 + row_bytes, first + 7 + 2 * row_bytes}) {
    SCOPED_TRACE("bit flip at " + std::to_string(offset));
    std::string bytes = *blob_;
    bytes[offset] ^= 0x01;
    const Status owning = RfsSerializer::Deserialize(bytes).status();
    EXPECT_EQ(owning.code(), StatusCode::kCorrupt);
    EXPECT_EQ(owning.message(),
              "RFS blob: leaf entry point disagrees with features");
    EXPECT_EQ(RfsSerializer::Decode(MemoryByteSource(bytes),
                                    tree_->feature_store())
                  .status()
                  .code(),
              StatusCode::kCorrupt);
  }
}

TEST_F(RfsCorruptionTest, LeavesMustHoldEveryImageOnce) {
  // The leaf's second entry becomes a copy of its first (image, lo and hi):
  // each entry still matches its feature row, but one image now sits in
  // two leaf entries and another in none.
  const std::size_t first = FirstLeafEntry(*tree_, *blob_, *layout_);
  ASSERT_NE(first, 0u);
  ASSERT_GE(Peek<std::uint64_t>(*blob_, first - 8), 2u);
  const std::size_t entry_bytes =
      8 + 2 * tree_->feature_dim() * sizeof(double);
  std::string bytes = *blob_;
  bytes.replace(first + entry_bytes + 4, entry_bytes - 4, *blob_, first + 4,
                entry_bytes - 4);
  Status status = RfsSerializer::Deserialize(bytes).status();
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_EQ(status.message(), "RFS blob: image in more than one leaf entry");
  // A tree size other than the image count.
  status = RfsSerializer::Deserialize(
               Forge(*blob_, layout_->index + 36,
                     static_cast<std::uint64_t>(tree_->num_images() + 1)))
               .status();
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_EQ(status.message(), "RFS blob: leaves do not hold every image once");
}

TEST_F(RfsCorruptionTest, RepresentativeOutsideItsSubtreeIsCorrupt) {
  // The first leaf annotation's first representative becomes an image of
  // another leaf: in range, but outside the node's subtree, where finalize
  // would find no leaf to expand from.
  const std::size_t dim = tree_->feature_dim();
  for (std::size_t info = layout_->info + 8; info < blob_->size();) {
    const NodeId id = Peek<std::uint32_t>(*blob_, info);
    const RfsTree::NodeInfo& node = tree_->info(id);
    const std::size_t first_rep = info + 28 + 4 * node.children.size();
    if (node.level == 0) {
      ImageId outsider = 0;
      while (tree_->LeafOf(outsider) == id) ++outsider;
      const Status status =
          RfsSerializer::Deserialize(Forge(*blob_, first_rep, outsider))
              .status();
      EXPECT_EQ(status.code(), StatusCode::kCorrupt);
      EXPECT_EQ(status.message(),
                "RFS blob: representative outside its subtree");
      return;
    }
    info = first_rep + 8 * node.representatives.size() + 8 * dim + 16;
  }
  FAIL() << "no leaf annotation in the blob";
}

/// An RFS over two one-dimensional images whose root has two chains of
/// `depth` one-entry nodes below it, each ending in a leaf with one image.
/// Every annotation lists `reps` copies of its chain's image (both images
/// at the root), except that the top of chain `forged_chain` (if 0 or 1)
/// lists the other chain's image.
std::string ChainBlob(std::uint32_t depth, std::uint64_t reps,
                      int forged_chain) {
  std::string b;
  const auto put = [&b](auto value) {
    b.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  b.append("QDRFS001", 8);
  put(std::uint64_t{2});  // images
  put(std::uint64_t{1});  // dim
  put(0.0);
  put(1.0);
  put(std::uint64_t{4});  // max_entries
  put(std::uint64_t{2});  // min_entries
  put(0.3);               // reinsert_fraction
  // Node 0 is the root; chain c holds nodes 1 + c * depth + k, k = 0 at
  // the top, k = depth - 1 the leaf with image c.
  const auto node_of = [depth](std::uint32_t c, std::uint32_t k) {
    return static_cast<NodeId>(1 + c * depth + k);
  };
  const auto parent_of = [&](std::uint32_t c, std::uint32_t k) {
    return k == 0 ? NodeId{0} : node_of(c, k - 1);
  };
  put(std::uint64_t{1} + 2 * depth);  // node slots
  put(NodeId{0});                     // root
  put(std::uint64_t{2});              // tree size
  put(std::uint8_t{1});
  put(static_cast<std::int32_t>(depth));
  put(kInvalidNodeId);
  put(std::uint64_t{2});
  for (std::uint32_t c = 0; c < 2; ++c) {
    put(node_of(c, 0));
    put(ImageId{0});
    put(0.0);  // lo
    put(1.0);  // hi
  }
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t k = 0; k < depth; ++k) {
      put(std::uint8_t{1});
      put(static_cast<std::int32_t>(depth - 1 - k));
      put(parent_of(c, k));
      put(std::uint64_t{1});
      put(k + 1 < depth ? node_of(c, k + 1) : kInvalidNodeId);
      put(static_cast<ImageId>(c));
      put(static_cast<double>(c));
      put(static_cast<double>(c));
    }
  }
  put(std::uint64_t{1} + 2 * depth);  // annotations
  const auto annotate = [&](NodeId id, std::int32_t level, NodeId parent,
                            std::vector<NodeId> children,
                            std::vector<ImageId> rep_list) {
    put(id);
    put(level);
    put(parent);
    put(static_cast<std::uint64_t>(children.size()));
    for (const NodeId c : children) put(c);
    put(static_cast<std::uint64_t>(rep_list.size()));
    for (const ImageId r : rep_list) put(r);
    for (std::size_t i = 0; i < rep_list.size(); ++i) put(id);  // origins
    put(0.5);  // center
    put(1.0);  // diagonal
    put(std::uint64_t{1});
  };
  std::vector<ImageId> both;
  for (std::uint64_t i = 0; i < reps; ++i) {
    both.push_back(0);
    both.push_back(1);
  }
  annotate(0, static_cast<std::int32_t>(depth), kInvalidNodeId,
           {node_of(0, 0), node_of(1, 0)}, both);
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t k = 0; k < depth; ++k) {
      const bool forged = k == 0 && static_cast<int>(c) == forged_chain;
      const ImageId rep = static_cast<ImageId>(forged ? 1 - c : c);
      annotate(node_of(c, k), static_cast<std::int32_t>(depth - 1 - k),
               parent_of(c, k),
               k + 1 < depth ? std::vector<NodeId>{node_of(c, k + 1)}
                             : std::vector<NodeId>{},
               std::vector<ImageId>(reps, rep));
    }
  }
  return b;
}

TEST(RfsDeepChainTest, SubtreeCheckHoldsOnDeepChains) {
  // Representatives listed at every node of chains thousands of nodes
  // deep: the check costs O(1) per representative, not a walk up the
  // chain, so these decode at once.
  constexpr std::uint32_t kDepth = 3000;
  constexpr std::uint64_t kReps = 50;
  StatusOr<RfsTree> tree =
      RfsSerializer::Deserialize(ChainBlob(kDepth, kReps, /*forged_chain=*/-1));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->LeafOf(0), static_cast<NodeId>(kDepth));
  EXPECT_EQ(tree->LeafOf(1), static_cast<NodeId>(2 * kDepth));
  // The top of either chain lists the other chain's image, whose leaf the
  // walk reaches before the forged subtree for one chain and after it for
  // the other.
  for (const int chain : {0, 1}) {
    SCOPED_TRACE("forged chain " + std::to_string(chain));
    const Status status =
        RfsSerializer::Deserialize(ChainBlob(kDepth, kReps, chain)).status();
    EXPECT_EQ(status.code(), StatusCode::kCorrupt);
    EXPECT_EQ(status.message(),
              "RFS blob: representative outside its subtree");
  }
}

TEST_F(RfsCorruptionTest, FailedAndShortReadsPropagate) {
  const MemoryByteSource base(*blob_);
  const FaultInjectingSource clean(base, FaultSpec{});
  ASSERT_TRUE(RfsSerializer::Decode(clean).ok());
  const std::uint64_t total_ops = clean.ops();
  ASSERT_GT(total_ops, 3u) << "the blob should span several buffers";
  for (std::uint64_t op = 0; op < total_ops; ++op) {
    SCOPED_TRACE("read operation " + std::to_string(op));
    FaultSpec fail;
    fail.fail_op = static_cast<std::int64_t>(op);
    EXPECT_EQ(RfsSerializer::Decode(FaultInjectingSource(base, fail))
                  .status()
                  .code(),
              StatusCode::kIoError);
    FaultSpec short_read;
    short_read.short_read_op = static_cast<std::int64_t>(op);
    EXPECT_EQ(RfsSerializer::Decode(FaultInjectingSource(base, short_read))
                  .status()
                  .code(),
              StatusCode::kTruncated);
  }
}

/// A snapshot with its RFS, saved both embedded and standalone, plus the
/// same-size RFS of a corpus synthesized from another seed.
class RfsSharedStoreTest : public ::testing::Test {
 protected:
  static ImageDatabase Synthesize(std::uint64_t seed) {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 12;
    SynthesizerOptions options;
    options.total_images = 300;
    options.image_width = 24;
    options.image_height = 24;
    options.seed = seed;
    return DatabaseSynthesizer::Synthesize(
               Catalog::Build(catalog_options).value(), options)
        .value();
  }
  static std::string BuildRfsBlob(const ImageDatabase& db) {
    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    return RfsSerializer::Serialize(
        RfsBuilder::Build(db.features(), build).value());
  }
  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  static void SetUpTestSuite() {
    const ImageDatabase db = Synthesize(7);
    const std::string rfs = BuildRfsBlob(db);
    db_path_ = new std::string(::testing::TempDir() + "rfs_shared.qdb");
    rfs_path_ = new std::string(::testing::TempDir() + "rfs_shared.rfs");
    other_rfs_path_ = new std::string(::testing::TempDir() + "rfs_other.rfs");
    ASSERT_TRUE(DatabaseIo::SaveDatabase(db, *db_path_, &rfs).ok());
    WriteFile(*rfs_path_, rfs);
    WriteFile(*other_rfs_path_, BuildRfsBlob(Synthesize(8)));
  }
  static void TearDownTestSuite() {
    for (std::string* path : {db_path_, rfs_path_, other_rfs_path_}) {
      std::remove(path->c_str());
      delete path;
    }
  }

  static std::string* db_path_;
  static std::string* rfs_path_;
  static std::string* other_rfs_path_;
};

std::string* RfsSharedStoreTest::db_path_ = nullptr;
std::string* RfsSharedStoreTest::rfs_path_ = nullptr;
std::string* RfsSharedStoreTest::other_rfs_path_ = nullptr;

TEST_F(RfsSharedStoreTest, LoadedPairHoldsTheFeaturesOnce) {
  const ImageDatabase db = DatabaseIo::LoadDatabase(*db_path_).value();
  // Viewpoint channel 0 aliases the main store.
  EXPECT_EQ(&db.channel_features(ViewpointChannel::kOriginal), &db.features());
  EXPECT_EQ(&db.channel_blocks(ViewpointChannel::kOriginal),
            &db.feature_blocks());
  ASSERT_TRUE(db.has_channel_features());
  EXPECT_NE(&db.channel_features(ViewpointChannel::kGray), &db.features());

  // Embedded chunk and standalone file alike adopt the database's store.
  for (const std::string& rfs_path : {std::string(), *rfs_path_}) {
    SCOPED_TRACE(rfs_path.empty() ? "embedded" : "standalone");
    const StatusOr<RfsTree> rfs =
        RfsSerializer::LoadForSnapshot(*db_path_, rfs_path, db.feature_store());
    ASSERT_TRUE(rfs.ok()) << rfs.status().ToString();
    EXPECT_EQ(&rfs->features(), &db.features());
    EXPECT_EQ(rfs->feature_store(), db.feature_store());
    EXPECT_TRUE(rfs->CheckInvariants().ok());
    // Sharing changes where the features live, not the tree.
    const StatusOr<RfsTree> owning = RfsSerializer::LoadFromFile(*rfs_path_);
    ASSERT_TRUE(owning.ok());
    EXPECT_NE(&owning->features(), &db.features());
    EXPECT_EQ(RfsSerializer::Serialize(*rfs),
              RfsSerializer::Serialize(*owning));
  }
}

TEST_F(RfsSharedStoreTest, MismatchedPairIsCorrupt) {
  const ImageDatabase db = DatabaseIo::LoadDatabase(*db_path_).value();
  const StatusOr<RfsTree> other = RfsSerializer::LoadForSnapshot(
      *db_path_, *other_rfs_path_, db.feature_store());
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(other.status().message(), "RFS features disagree with snapshot");
  // Unpaired, the same file decodes fine.
  EXPECT_TRUE(RfsSerializer::LoadFromFile(*other_rfs_path_).ok());

  // A store of another size disagrees too.
  const ImageDatabase half = DatabaseSynthesizer::Subsample(db, 150).value();
  EXPECT_EQ(RfsSerializer::LoadForSnapshot(*db_path_, "", half.feature_store())
                .status()
                .code(),
            StatusCode::kCorrupt);
}

TEST_F(RfsSharedStoreTest, MissingEmbeddedChunkIsNotFound) {
  const std::string bare = ::testing::TempDir() + "rfs_bare.qdb";
  const ImageDatabase db = DatabaseIo::LoadDatabase(*db_path_).value();
  ASSERT_TRUE(DatabaseIo::SaveDatabase(db, bare).ok());
  EXPECT_EQ(RfsSerializer::LoadForSnapshot(bare, "", nullptr).status().code(),
            StatusCode::kNotFound);
  std::remove(bare.c_str());
}

}  // namespace
}  // namespace qdcbir
