// Demonstrates the paper's Section 6 future-work extension: letting the
// user declare which feature group matters most ("the user may define
// color as the most important feature in the retrieval procedure").
//
// The example runs the same "laptop" Query Decomposition session three
// times — unweighted, with the edge-structure group emphasized (laptop
// variants differ by background complexity, which edges carry), and with
// the texture group emphasized — and compares the retrieval quality.
//
// Run:  ./build/examples/feature_importance [images]

#include <cstdio>
#include <cstdlib>

#include "qdcbir/dataset/catalog.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/session_runner.h"
#include "qdcbir/features/extractor.h"
#include "qdcbir/rfs/rfs_builder.h"

using namespace qdcbir;

int main(int argc, char** argv) {
  const std::size_t total_images =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 6000;

  StatusOr<Catalog> catalog = Catalog::Build();
  if (!catalog.ok()) return 1;
  SynthesizerOptions synth;
  synth.total_images = total_images;
  synth.extract_viewpoint_channels = false;
  std::printf("synthesizing %zu images...\n", total_images);
  StatusOr<ImageDatabase> db = DatabaseSynthesizer::Synthesize(*catalog, synth);
  if (!db.ok()) return 1;
  StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), RfsBuildOptions{});
  if (!rfs.ok()) return 1;

  StatusOr<QueryGroundTruth> gt =
      BuildGroundTruth(*db, catalog->FindQuery("laptop").value());
  if (!gt.ok()) return 1;
  std::printf(
      "query \"laptop\": %zu relevant images; the two sub-concepts differ "
      "by background complexity (an edge/texture property).\n\n",
      gt->size());

  struct Scheme {
    const char* name;
    std::vector<double> weights;
  };
  const Scheme schemes[] = {
      {"uniform (paper default)", {}},
      {"edge structure 4x", MakeGroupWeights(1.0, 1.0, 4.0)},
      {"texture 4x (mismatched)", MakeGroupWeights(1.0, 4.0, 1.0)},
  };

  for (const Scheme& scheme : schemes) {
    double precision = 0.0, gtir = 0.0;
    const int seeds = 3;
    for (int seed = 1; seed <= seeds; ++seed) {
      QdOptions options;
      options.feature_weights = scheme.weights;
      ProtocolOptions protocol;
      protocol.seed = seed;
      StatusOr<RunOutcome> outcome =
          SessionRunner::RunQd(*rfs, *gt, options, protocol);
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
        return 1;
      }
      precision += outcome->final_precision;
      gtir += outcome->final_gtir;
    }
    std::printf("  %-26s precision %.2f, GTIR %.2f\n", scheme.name,
                precision / seeds, gtir / seeds);
  }
  std::printf(
      "\nWeights reshape the final ranking only; discovery (GTIR) is driven "
      "by the RFS representatives. When the localized subclusters are pure, "
      "all schemes tie — differences appear when a leaf mixes concepts (see "
      "bench_ablation_feature_weights for a full sweep).\n");
  return 0;
}
