// Reproduces the scenario of the paper's Figure 3: a user searches for
// "bird"; query decomposition discovers the eagle, sparrow, and owl
// subclusters as independent subqueries, and the final result panel is
// presented in groups ordered by ranking score (the paper notes the owl
// group ranks last because it attracts more less-relevant images).
//
// Run:  ./build/examples/bird_search [images] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "qdcbir/dataset/catalog.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/metrics.h"
#include "qdcbir/eval/oracle.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

using namespace qdcbir;

int main(int argc, char** argv) {
  const std::size_t total_images =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 6000;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 7;

  StatusOr<Catalog> catalog = Catalog::Build();
  if (!catalog.ok()) return 1;
  SynthesizerOptions synth;
  synth.total_images = total_images;
  synth.extract_viewpoint_channels = false;
  std::printf("synthesizing %zu images...\n", total_images);
  StatusOr<ImageDatabase> db = DatabaseSynthesizer::Synthesize(*catalog, synth);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  RfsBuildOptions build;
  build.tree.max_entries = 100;
  build.tree.min_entries = 70;
  // The paper's 5% representatives are calibrated for 15k images; below
  // that scale, keep roughly three representatives per sub-concept so every
  // subcluster stays discoverable.
  build.representatives.fraction = std::max(
      0.05, 3.0 * static_cast<double>(catalog->subconcepts().size()) /
                static_cast<double>(total_images));
  StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), build);
  if (!rfs.ok()) {
    std::fprintf(stderr, "%s\n", rfs.status().ToString().c_str());
    return 1;
  }

  StatusOr<QueryGroundTruth> gt =
      BuildGroundTruth(*db, catalog->FindQuery("bird").value());
  if (!gt.ok()) return 1;

  // Drive the session the way the paper's Figure 2/3 walk-through does:
  // the oracle stands in for the user, re-marking relevant representatives
  // at every level of the descent.
  QdOptions options;
  options.seed = seed;
  QdSession session(&*rfs, options);
  OracleUser oracle;

  auto display = session.Start();
  for (int round = 1; round <= 3; ++round) {
    std::vector<ImageId> picks;
    for (int browse = 0; browse < 40 && picks.size() < 8; ++browse) {
      std::vector<ImageId> flat;
      for (const DisplayGroup& g : display) {
        flat.insert(flat.end(), g.images.begin(), g.images.end());
      }
      for (const ImageId id :
           oracle.SelectRelevant(flat, *gt, 8 - picks.size())) {
        if (std::find(picks.begin(), picks.end(), id) == picks.end()) {
          picks.push_back(id);
        }
      }
      if (picks.size() >= 8) break;
      display = session.Resample();
    }
    std::printf("round %d: user marked %zu relevant representatives:", round,
                picks.size());
    for (const ImageId id : picks) {
      std::printf(" %s", db->LabelOf(id).c_str());
    }
    std::printf("\n         active subqueries after feedback: ");
    StatusOr<std::vector<DisplayGroup>> next = session.Feedback(picks);
    if (!next.ok()) {
      std::fprintf(stderr, "%s\n", next.status().ToString().c_str());
      return 1;
    }
    display = std::move(next).value();
    std::printf("%zu\n", session.frontier().size());
  }

  StatusOr<QdResult> result = session.Finalize(gt->size());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nfinal result: %zu images in %zu groups "
              "(groups ordered by ranking score):\n",
              result->TotalImages(), result->groups.size());
  for (std::size_t g = 0; g < result->groups.size(); ++g) {
    const ResultGroup& group = result->groups[g];
    // Majority label of the group, as the paper names its panels.
    std::map<std::string, int> labels;
    for (const KnnMatch& m : group.images) labels[db->LabelOf(m.id)] += 1;
    std::string majority;
    int best = 0;
    for (const auto& [label, count] : labels) {
      if (count > best) {
        best = count;
        majority = label;
      }
    }
    std::printf("  group %zu: \"%s\" — %zu images, ranking score %.2f\n",
                g + 1, majority.c_str(), group.images.size(),
                group.ranking_score);
  }

  const std::vector<ImageId> flat = result->Flatten();
  std::printf("\nprecision %.2f, GTIR %.2f over %zu ground-truth birds\n",
              ComputePrecisionRecall(flat, *gt).precision,
              ComputeGtir(flat, *gt), gt->size());
  return 0;
}
