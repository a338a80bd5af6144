#include "qdcbir/dataset/synthesizer.h"

#include <algorithm>
#include <cmath>

#include "qdcbir/core/rng.h"
#include "qdcbir/dataset/recipe.h"

namespace qdcbir {

namespace {

/// One store per table, for `ImageDatabase::InstallFeatures` (which maps an
/// empty one to the shared empty store).
std::array<std::shared_ptr<const FeatureStore>, kNumViewpointChannels>
MakeStores(
    const std::array<std::vector<FeatureVector>, kNumViewpointChannels>&
        tables) {
  std::array<std::shared_ptr<const FeatureStore>, kNumViewpointChannels>
      stores;
  for (int c = 0; c < kNumViewpointChannels; ++c) {
    stores[c] = std::make_shared<const FeatureStore>(tables[c]);
  }
  return stores;
}

}  // namespace

StatusOr<ImageDatabase> DatabaseSynthesizer::Synthesize(
    const Catalog& catalog, const SynthesizerOptions& options) {
  if (options.total_images == 0) {
    return Status::InvalidArgument("total_images must be positive");
  }
  if (options.image_width < 8 || options.image_height < 8) {
    return Status::InvalidArgument("image dimensions must be at least 8x8");
  }
  const std::vector<SubConceptSpec>& subs = catalog.subconcepts();
  if (subs.empty()) {
    return Status::InvalidArgument("catalog has no sub-concepts");
  }

  // Allocate image counts per sub-concept proportionally to weight.
  double total_weight = 0.0;
  for (const SubConceptSpec& s : subs) total_weight += s.weight;
  std::vector<std::size_t> counts(subs.size());
  std::size_t allocated = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    counts[i] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(
               static_cast<double>(options.total_images) * subs[i].weight /
               total_weight)));
    allocated += counts[i];
  }
  // Adjust round-robin to hit total_images exactly.
  std::size_t cursor = 0;
  while (allocated < options.total_images) {
    counts[cursor % counts.size()] += 1;
    ++allocated;
    ++cursor;
  }
  // Keep at least one image per sub-concept while the budget allows; when
  // total_images < #sub-concepts that floor is unsatisfiable, so after one
  // full fruitless cycle drop it and let starved sub-concepts go empty
  // (otherwise this loop never terminates).
  std::size_t fruitless = 0;
  while (allocated > options.total_images) {
    const std::size_t i = cursor % counts.size();
    const std::size_t keep = fruitless >= counts.size() ? 0 : 1;
    if (counts[i] > keep) {
      counts[i] -= 1;
      --allocated;
      fruitless = 0;
    } else {
      ++fruitless;
    }
    ++cursor;
  }

  ImageDatabase db;
  db.catalog_ = catalog;
  db.image_width_ = options.image_width;
  db.image_height_ = options.image_height;
  db.subconcept_images_.assign(subs.size(), {});

  const FeatureExtractor extractor;
  Rng master(options.seed);

  std::vector<FeatureVector> raw_main;
  std::array<std::vector<FeatureVector>, kNumViewpointChannels> raw_channels;
  raw_main.reserve(options.total_images);

  for (std::size_t si = 0; si < subs.size(); ++si) {
    for (std::size_t k = 0; k < counts[si]; ++k) {
      const std::uint64_t render_seed = master.NextUint64();
      Rng image_rng(render_seed);
      const Image image = RenderRecipe(subs[si].recipe, options.image_width,
                                       options.image_height, image_rng);

      StatusOr<FeatureVector> fv = extractor.Extract(image);
      if (!fv.ok()) return fv.status();

      ImageRecord rec;
      rec.id = static_cast<ImageId>(db.records_.size());
      rec.subconcept = subs[si].id;
      rec.category = subs[si].category;
      rec.render_seed = render_seed;

      raw_main.push_back(std::move(fv).value());
      if (options.extract_viewpoint_channels) {
        for (int c = 1; c < kNumViewpointChannels; ++c) {
          StatusOr<FeatureVector> cf = extractor.ExtractChannel(
              image, static_cast<ViewpointChannel>(c));
          if (!cf.ok()) return cf.status();
          raw_channels[c].push_back(std::move(cf).value());
        }
      }
      db.subconcept_images_[subs[si].id].push_back(rec.id);
      db.records_.push_back(rec);
    }
  }

  QDCBIR_RETURN_IF_ERROR(db.normalizer_.Fit(raw_main));
  QDCBIR_RETURN_IF_ERROR(db.normalizer_.TransformInPlace(raw_main));
  db.channel_normalizers_[0] = db.normalizer_;

  if (options.extract_viewpoint_channels) {
    for (int c = 1; c < kNumViewpointChannels; ++c) {
      QDCBIR_RETURN_IF_ERROR(db.channel_normalizers_[c].Fit(raw_channels[c]));
      QDCBIR_RETURN_IF_ERROR(
          db.channel_normalizers_[c].TransformInPlace(raw_channels[c]));
    }
  }
  raw_channels[0] = std::move(raw_main);
  db.InstallFeatures(MakeStores(raw_channels));
  return db;
}

StatusOr<ImageDatabase> DatabaseSynthesizer::Subsample(
    const ImageDatabase& db, std::size_t subset_total) {
  if (subset_total == 0 || subset_total > db.size()) {
    return Status::InvalidArgument("invalid subsample size");
  }
  const double ratio =
      static_cast<double>(subset_total) / static_cast<double>(db.size());

  ImageDatabase out;
  out.catalog_ = db.catalog_;
  out.image_width_ = db.image_width_;
  out.image_height_ = db.image_height_;
  out.normalizer_ = db.normalizer_;
  out.channel_normalizers_ = db.channel_normalizers_;
  out.subconcept_images_.assign(db.subconcept_images_.size(), {});

  // Stratified selection: keep a proportional prefix of every sub-concept so
  // the subsample preserves all clusters.
  std::vector<ImageId> selected;
  for (const auto& ids : db.subconcept_images_) {
    const std::size_t keep = std::min(
        ids.size(), static_cast<std::size_t>(
                        std::ceil(ratio * static_cast<double>(ids.size()))));
    for (std::size_t i = 0; i < keep; ++i) selected.push_back(ids[i]);
  }
  // Ceil rounding may overshoot; trim without emptying any sub-concept.
  if (selected.size() > subset_total) {
    std::vector<std::size_t> stratum_count(db.subconcept_images_.size(), 0);
    for (const ImageId id : selected) {
      stratum_count[db.records_[id].subconcept] += 1;
    }
    std::vector<ImageId> trimmed;
    trimmed.reserve(subset_total);
    std::size_t excess = selected.size() - subset_total;
    for (std::size_t i = selected.size(); i-- > 0;) {
      const SubConceptId sub = db.records_[selected[i]].subconcept;
      if (excess > 0 && stratum_count[sub] > 1) {
        stratum_count[sub] -= 1;
        --excess;
      } else {
        trimmed.push_back(selected[i]);
      }
    }
    std::reverse(trimmed.begin(), trimmed.end());
    selected = std::move(trimmed);
  }

  const int channels = db.has_channel_features() ? kNumViewpointChannels : 1;
  std::array<std::vector<FeatureVector>, kNumViewpointChannels> tables;
  for (const ImageId old_id : selected) {
    ImageRecord rec = db.records_[old_id];
    rec.id = static_cast<ImageId>(out.records_.size());
    for (int c = 0; c < channels; ++c) {
      tables[c].emplace_back(
          db.channel_feature(static_cast<ViewpointChannel>(c), old_id));
    }
    out.subconcept_images_[rec.subconcept].push_back(rec.id);
    out.records_.push_back(rec);
  }
  out.InstallFeatures(MakeStores(tables));
  return out;
}

}  // namespace qdcbir
