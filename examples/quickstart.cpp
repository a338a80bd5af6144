// Quickstart: build a small synthetic image database, construct the RFS
// structure, run one Query Decomposition session with a simulated user
// searching for "bird", and compare against the Multiple Viewpoints
// baseline.
//
// Run:  ./build/examples/quickstart

#include <cstdio>

#include "qdcbir/dataset/catalog.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/metrics.h"
#include "qdcbir/eval/session_runner.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

using namespace qdcbir;

int main() {
  // 1. Catalog: ~60 categories, including the paper's evaluation concepts.
  CatalogOptions catalog_options;
  catalog_options.num_categories = 60;
  StatusOr<Catalog> catalog = Catalog::Build(catalog_options);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n", catalog.status().ToString().c_str());
    return 1;
  }

  // 2. Database: 3,000 synthetic images, 37-D features per image.
  SynthesizerOptions synth_options;
  synth_options.total_images = 3000;
  StatusOr<ImageDatabase> db =
      DatabaseSynthesizer::Synthesize(*catalog, synth_options);
  if (!db.ok()) {
    std::fprintf(stderr, "synthesize: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("database: %zu images, %zu-D features, %zu categories\n",
              db->size(), db->feature_dim(), catalog->categories().size());

  // 3. RFS structure: R*-tree + representative images (~5%%).
  RfsBuildOptions build_options;
  build_options.tree.max_entries = 60;
  build_options.tree.min_entries = 24;
  StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), build_options);
  if (!rfs.ok()) {
    std::fprintf(stderr, "rfs: %s\n", rfs.status().ToString().c_str());
    return 1;
  }
  const RfsTree::Stats stats = rfs->ComputeStats();
  std::printf(
      "RFS tree: height %d, %zu nodes (%zu leaves), %zu representatives "
      "(%.1f%% of the database)\n",
      stats.height, stats.node_count, stats.leaf_count,
      stats.leaf_representatives, 100.0 * stats.representative_fraction);

  // 4. Search for "bird" (ground truth: eagle + owl + sparrow clusters).
  StatusOr<QueryConceptSpec> query = catalog->FindQuery("bird");
  if (!query.ok()) return 1;
  StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, *query);
  if (!gt.ok()) {
    std::fprintf(stderr, "ground truth: %s\n", gt.status().ToString().c_str());
    return 1;
  }
  std::printf("\nquery \"bird\": %zu relevant images in %zu sub-concepts\n",
              gt->size(), gt->subconcept_images.size());

  ProtocolOptions protocol;
  protocol.seed = 42;

  // 4a. Query Decomposition.
  StatusOr<RunOutcome> qd =
      SessionRunner::RunQd(*rfs, *gt, QdOptions{}, protocol);
  if (!qd.ok()) {
    std::fprintf(stderr, "qd run: %s\n", qd.status().ToString().c_str());
    return 1;
  }
  std::printf("\nQuery Decomposition:\n");
  std::printf("  precision %.2f, GTIR %.2f\n", qd->final_precision,
              qd->final_gtir);
  std::printf("  %zu localized subqueries, %zu boundary expansions\n",
              qd->qd_stats.localized_subqueries,
              qd->qd_stats.boundary_expansions);
  for (const ResultGroup& group : qd->qd_result.groups) {
    std::printf("  group (leaf %u, %zu relevant marks): %zu results, "
                "ranking score %.2f\n",
                group.leaf, group.relevant_count, group.images.size(),
                group.ranking_score);
  }

  // 4b. Multiple Viewpoints baseline on the same query.
  MvEngine mv(&*db);
  StatusOr<RunOutcome> mv_run = SessionRunner::RunEngine(mv, *gt, protocol);
  if (!mv_run.ok()) {
    std::fprintf(stderr, "mv run: %s\n", mv_run.status().ToString().c_str());
    return 1;
  }
  std::printf("\nMultiple Viewpoints baseline:\n");
  std::printf("  precision %.2f, GTIR %.2f\n", mv_run->final_precision,
              mv_run->final_gtir);

  std::printf("\nQD covered %.0f%% of the bird sub-concepts; MV covered "
              "%.0f%%.\n",
              100.0 * qd->final_gtir, 100.0 * mv_run->final_gtir);
  return 0;
}
