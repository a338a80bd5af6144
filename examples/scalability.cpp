// Demonstrates the paper's scalability argument (Section 6, "More
// Scalable"): relevance-feedback processing needs only the RFS structure —
// a small fraction of the database — so it can run on client machines,
// while the server only executes the final localized k-NN subqueries.
//
// This example builds a database, serializes the RFS structure (the
// "client download"), reports its size relative to the full database, and
// runs a feedback session entirely against the deserialized client copy.
//
// Run:  ./build/examples/scalability [images]

#include <cstdio>
#include <cstdlib>

#include "qdcbir/dataset/catalog.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/metrics.h"
#include "qdcbir/eval/session_runner.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_serialization.h"

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

  StatusOr<RfsTree> server_rfs =
      RfsBuilder::Build(db->feature_store(), RfsBuildOptions{});
  if (!server_rfs.ok()) return 1;

  // "Download" the RFS structure to the client. The paper's scalability
  // claim is about *image data*: feedback needs only the representative
  // images (about 5% of the collection), so their pixels plus the RFS index
  // are all a client must hold.
  const std::string rfs_blob = RfsSerializer::Serialize(*server_rfs);
  const RfsTree::Stats stats = server_rfs->ComputeStats();
  const double bytes_per_image =
      static_cast<double>(db->image_width()) * db->image_height() * 3;
  const double full_pixels_mb = bytes_per_image * db->size() / 1e6;
  const double rep_pixels_mb =
      bytes_per_image * stats.leaf_representatives / 1e6;
  std::printf(
      "\nfull image collection:          %.1f MB of pixels (%zu images)\n"
      "client representative images:   %.1f MB of pixels (%zu images, "
      "%.1f%%)\n"
      "client RFS index structure:     %.1f MB\n",
      full_pixels_mb, db->size(), rep_pixels_mb, stats.leaf_representatives,
      100.0 * stats.representative_fraction, rfs_blob.size() / 1e6);

  // The client runs the interactive session on its own copy.
  StatusOr<RfsTree> client_rfs = RfsSerializer::Deserialize(rfs_blob);
  if (!client_rfs.ok()) return 1;

  StatusOr<QueryGroundTruth> gt =
      BuildGroundTruth(*db, catalog->FindQuery("car").value());
  if (!gt.ok()) return 1;

  ProtocolOptions protocol;
  protocol.seed = 3;
  StatusOr<RunOutcome> outcome =
      SessionRunner::RunQd(*client_rfs, *gt, QdOptions{}, protocol);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "\nclient-side \"car\" session: precision %.2f, GTIR %.2f\n"
      "feedback rounds touched %zu tree nodes; the final round issued %zu "
      "localized k-NN subqueries over %zu candidate images (vs %zu images "
      "scanned per round by a traditional global-kNN engine).\n",
      outcome->final_precision, outcome->final_gtir,
      outcome->qd_stats.nodes_touched,
      outcome->qd_stats.localized_subqueries,
      outcome->qd_stats.knn_candidates, db->size());
  return 0;
}
