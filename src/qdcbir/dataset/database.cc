#include "qdcbir/dataset/database.h"

#include "qdcbir/core/rng.h"
#include "qdcbir/dataset/recipe.h"

namespace qdcbir {

void ImageDatabase::InstallFeatures(
    std::array<std::shared_ptr<const FeatureStore>, kNumViewpointChannels>
        stores) {
  for (int c = 0; c < kNumViewpointChannels; ++c) {
    stores_[c] = stores[c] != nullptr && !stores[c]->empty()
                     ? std::move(stores[c])
                     : FeatureStore::Empty();
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
