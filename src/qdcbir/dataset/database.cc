#include "qdcbir/dataset/database.h"

#include "qdcbir/core/rng.h"
#include "qdcbir/dataset/recipe.h"

namespace qdcbir {

void ImageDatabase::InstallFeatures(
    std::array<std::vector<FeatureVector>, kNumViewpointChannels> tables) {
  stores_[0] = std::make_shared<const FeatureStore>(std::move(tables[0]));
  for (int c = 1; c < kNumViewpointChannels; ++c) {
    stores_[c] = tables[c].empty() ? FeatureStore::Empty()
                                   : std::make_shared<const FeatureStore>(
                                         std::move(tables[c]));
  }
}

std::vector<ImageId> ImageDatabase::ImagesOfSubConcept(SubConceptId sub) const {
  if (sub >= subconcept_images_.size()) return {};
  return subconcept_images_[sub];
}

std::vector<ImageId> ImageDatabase::ImagesOfSubConcepts(
    const std::vector<SubConceptId>& subs) const {
  std::vector<ImageId> out;
  for (SubConceptId sub : subs) {
    const std::vector<ImageId> ids = ImagesOfSubConcept(sub);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

Image ImageDatabase::Render(ImageId id) const {
  const ImageRecord& rec = records_[id];
  Rng rng(rec.render_seed);
  return RenderRecipe(catalog_.subconcept(rec.subconcept).recipe, image_width_,
                      image_height_, rng);
}

std::string ImageDatabase::LabelOf(ImageId id) const {
  const ImageRecord& rec = records_[id];
  return catalog_.category(rec.category).name + "/" +
         catalog_.subconcept(rec.subconcept).name;
}

}  // namespace qdcbir
