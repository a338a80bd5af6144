#ifndef QDCBIR_DATASET_DATABASE_H_
#define QDCBIR_DATASET_DATABASE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/dataset/catalog.h"
#include "qdcbir/features/extractor.h"
#include "qdcbir/features/normalizer.h"
#include "qdcbir/image/image.h"

namespace qdcbir {

/// Per-image ground-truth metadata.
struct ImageRecord {
  ImageId id = kInvalidImageId;
  SubConceptId subconcept = kInvalidSubConceptId;
  CategoryId category = kInvalidCategoryId;
  std::uint64_t render_seed = 0;  ///< reproduces the pixels on demand
};

/// The in-memory image database: ground-truth records plus normalized
/// feature vectors for the main channel and (optionally) the three extra
/// viewpoint channels used by the Multiple Viewpoints baseline.
///
/// Each feature table lives in an immutable `FeatureStore` that the
/// database shares rather than owns a copy of: viewpoint channel 0 aliases
/// the main store, and an RFS tree loaded against this database adopts the
/// same store (`feature_store()`), so the corpus features are held once.
///
/// Pixels are not retained: every image can be re-rendered deterministically
/// from its record (`Render`), which keeps a 24k-image database small.
class ImageDatabase {
 public:
  ImageDatabase() { stores_.fill(FeatureStore::Empty()); }

  std::size_t size() const { return records_.size(); }
  std::size_t feature_dim() const { return stores_[0]->dim(); }
  bool has_channel_features() const { return !stores_[1]->empty(); }

  const Catalog& catalog() const { return catalog_; }
  int image_width() const { return image_width_; }
  int image_height() const { return image_height_; }

  const ImageRecord& record(ImageId id) const { return records_[id]; }
  const std::vector<ImageRecord>& records() const { return records_; }

  /// Normalized feature vector of an image (main channel).
  FeatureRow feature(ImageId id) const { return features().row(id); }
  const FeatureStore& features() const { return *stores_[0]; }

  /// Normalized feature vector as seen through a viewpoint channel.
  FeatureRow channel_feature(ViewpointChannel channel, ImageId id) const {
    return channel_features(channel).row(id);
  }
  const FeatureStore& channel_features(ViewpointChannel channel) const {
    return *stores_[static_cast<int>(channel)];
  }

  /// Blocked SoA copy of the main-channel feature table, which the
  /// whole-table sweeps (global k-NN, QPM, Qcluster, Fagin) scan instead of
  /// the rows. Built on the first call, once per store.
  const FeatureBlockTable& feature_blocks() const {
    return stores_[0]->blocks();
  }

  /// Blocked copy of a viewpoint channel's table (MV's channel sweeps),
  /// built on the first call; empty when the channel was not extracted.
  const FeatureBlockTable& channel_blocks(ViewpointChannel channel) const {
    return stores_[static_cast<int>(channel)]->blocks();
  }

  /// The shared main-channel store, for structures that index this
  /// database's features without copying them (the RFS tree).
  const std::shared_ptr<const FeatureStore>& feature_store() const {
    return stores_[0];
  }

  /// Normalizer fitted on the raw main-channel features.
  const FeatureNormalizer& normalizer() const { return normalizer_; }
  const FeatureNormalizer& channel_normalizer(ViewpointChannel channel) const {
    return channel_normalizers_[static_cast<int>(channel)];
  }

  /// All image ids belonging to a sub-concept / a set of sub-concepts.
  std::vector<ImageId> ImagesOfSubConcept(SubConceptId sub) const;
  std::vector<ImageId> ImagesOfSubConcepts(
      const std::vector<SubConceptId>& subs) const;

  /// Re-renders the pixels of an image (deterministic).
  Image Render(ImageId id) const;

  /// A short human-readable label ("bird/eagle") for result listings.
  std::string LabelOf(ImageId id) const;

 private:
  friend class DatabaseSynthesizer;
  friend class DatabaseIo;

  /// Installs the feature stores (`stores[0]` is the main channel; a null
  /// or empty extra channel maps to the shared empty store). Every
  /// construction path (synthesize / subsample / snapshot load) calls this
  /// once the tables are final, and channel 0 aliases the main store
  /// instead of copying it.
  void InstallFeatures(
      std::array<std::shared_ptr<const FeatureStore>, kNumViewpointChannels>
          stores);

  Catalog catalog_;
  std::vector<ImageRecord> records_;
  /// Feature store per viewpoint channel; `stores_[0]` is the main table.
  std::array<std::shared_ptr<const FeatureStore>, kNumViewpointChannels>
      stores_;
  FeatureNormalizer normalizer_;
  std::array<FeatureNormalizer, kNumViewpointChannels> channel_normalizers_;
  std::vector<std::vector<ImageId>> subconcept_images_;
  int image_width_ = 48;
  int image_height_ = 48;
};

}  // namespace qdcbir

#endif  // QDCBIR_DATASET_DATABASE_H_
