// Reproduces Figure 1 of the paper: the four "white sedan" view sub-concepts
// (side / front / back / angle) form distinct, well-separated clusters when
// the 37-D feature space is projected onto its top 3 principal components —
// the semantic-scattering premise of Query Decomposition.
//
// Prints per-cluster centroids in PCA space plus separation statistics, and
// writes the projected points to fig1_points.csv for external plotting.
//
// Flags: --images=15000 --cache=bench_cache --csv=fig1_points.csv

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/cluster/cluster_stats.h"
#include "qdcbir/cluster/pca.h"
#include "qdcbir/eval/table_printer.h"

namespace qdcbir {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 15000));
  const std::string cache = flags.Str("cache", "bench_cache");
  const std::string csv = flags.Str("csv", "fig1_points.csv");

  PrintHeader("Figure 1 — Four distinct \"white sedan\" clusters in 3-D PCA "
              "projection",
              "PCA of the full 37-D database projected to 3 dimensions; the "
              "white-sedan view sub-concepts must form separated clusters "
              "while staying far apart from each other.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/true, cache);
  if (!db.ok()) {
    std::fprintf(stderr, "database: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Fit PCA on the whole database (as the paper does) and project the
  // white-sedan images.
  Pca pca;
  std::vector<FeatureVector> points;
  points.reserve(db->size());
  for (ImageId id = 0; id < db->size(); ++id) {
    points.emplace_back(db->feature(id));
  }
  const Status fit = pca.Fit(points, 3);
  if (!fit.ok()) {
    std::fprintf(stderr, "pca: %s\n", fit.ToString().c_str());
    return 1;
  }
  std::printf("PCA explained variance ratio (3 components): %.1f%%\n\n",
              100.0 * pca.explained_variance_ratio());

  const CategoryId sedan = db->catalog().FindCategory("white_sedan").value();
  const std::vector<SubConceptId>& views =
      db->catalog().category(sedan).subconcepts;

  std::vector<FeatureVector> projected;
  std::vector<int> labels;
  std::ofstream out(csv);
  out << "view,pc1,pc2,pc3\n";
  TablePrinter table({"View sub-concept", "Images", "PC1 centroid",
                      "PC2 centroid", "PC3 centroid", "Mean radius"});
  for (std::size_t v = 0; v < views.size(); ++v) {
    const std::string& name = db->catalog().subconcept(views[v]).name;
    std::vector<FeatureVector> cluster;
    for (const ImageId id : db->ImagesOfSubConcept(views[v])) {
      const FeatureVector p = pca.Transform(db->feature(id)).value();
      out << name << "," << p[0] << "," << p[1] << "," << p[2] << "\n";
      projected.push_back(p);
      labels.push_back(static_cast<int>(v));
      cluster.push_back(p);
    }
    const FeatureVector centroid = FeatureVector::Centroid(cluster);
    double radius = 0.0;
    for (const FeatureVector& p : cluster) {
      radius += (p - centroid).Norm();
    }
    radius /= static_cast<double>(cluster.size());
    table.AddRow({name, std::to_string(cluster.size()),
                  TablePrinter::Num(centroid[0]),
                  TablePrinter::Num(centroid[1]),
                  TablePrinter::Num(centroid[2]), TablePrinter::Num(radius)});
  }
  table.Print(std::cout);

  // ASCII scatter of the first two principal components (the paper's
  // Figure 1, terminal edition): one letter per view sub-concept.
  {
    constexpr int kRows = 22;
    constexpr int kCols = 66;
    double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
    for (const FeatureVector& p : projected) {
      min_x = std::min(min_x, p[0]);
      max_x = std::max(max_x, p[0]);
      min_y = std::min(min_y, p[1]);
      max_y = std::max(max_y, p[1]);
    }
    std::vector<std::string> grid(kRows, std::string(kCols, ' '));
    for (std::size_t i = 0; i < projected.size(); ++i) {
      const int col = static_cast<int>((projected[i][0] - min_x) /
                                       (max_x - min_x + 1e-12) * (kCols - 1));
      const int row = static_cast<int>((projected[i][1] - min_y) /
                                       (max_y - min_y + 1e-12) * (kRows - 1));
      grid[kRows - 1 - row][col] = static_cast<char>('A' + labels[i]);
    }
    std::printf("\nPC1 (x) vs PC2 (y); A=side B=front C=back D=angle:\n");
    for (const std::string& line : grid) {
      std::printf("  |%s|\n", line.c_str());
    }
  }

  const ClusterSeparationStats stats = ComputeSeparation(projected, labels);
  const double silhouette = MeanSilhouette(projected, labels);
  std::printf(
      "\nSeparation in 3-D PCA space: %zu clusters, mean intra radius %.2f, "
      "min inter-centroid distance %.2f, separation ratio %.2f, "
      "mean silhouette %.2f\n",
      stats.num_clusters, stats.mean_intra_radius,
      stats.min_inter_centroid_dist, stats.separation_ratio, silhouette);
  std::printf("Projected points written to %s\n", csv.c_str());

  std::printf(
      "\nShape check (paper claim): the four view sub-concepts are distinct "
      "clusters (separation ratio > 1): %s\n",
      stats.separation_ratio > 1.0 ? "HOLDS" : "VIOLATED");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
