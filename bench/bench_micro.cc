// Micro-benchmarks (google-benchmark) of the library's hot paths: distance
// kernels, brute-force vs R*-tree k-NN, k-means, feature extraction, and
// the Haar transform. These quantify the primitives behind Figures 10-11.
// The *_Threads benchmarks sweep the thread pool across 1/2/4/8 lanes to
// show the scaling of the parallel execution layer.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/profiler.h"
#include "qdcbir/obs/trace.h"

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/cluster/kmeans.h"
#include "qdcbir/core/distance.h"
#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/recipe.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/features/extractor.h"
#include "qdcbir/features/wavelet_texture.h"
#include "qdcbir/index/rstar_tree.h"
#include "qdcbir/index/str_bulk_load.h"
#include "qdcbir/query/knn.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

std::vector<FeatureVector> RandomPoints(std::size_t n, std::size_t dim,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.Gaussian();
    out.push_back(std::move(v));
  }
  return out;
}

void BM_SquaredL2_37d(benchmark::State& state) {
  const auto points = RandomPoints(2, kPaperFeatureDim, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(points[0], points[1]));
  }
}
BENCHMARK(BM_SquaredL2_37d);

// --- Batched distance-kernel sweeps (docs/simd.md) --------------------
//
// BM_WeightedL2PerVector is the pre-blocking baseline the ISSUE's >=2x
// speedup target is measured against; the *_Blocked variants run the same
// scan through the tile kernels at an explicit SIMD level, so one JSON
// export (CI's bench-kernels artifact) captures scalar-vs-avx2 side by
// side regardless of the host's dispatch choice.

// 4000 x 37 doubles (~1.2 MB) stays L2-resident, so the sweep measures
// kernel arithmetic rather than DRAM bandwidth (a 40k-vector table makes
// every variant converge on the same memory-bound throughput).
constexpr std::size_t kKernelBenchTable = 4000;

void BM_WeightedL2PerVector(benchmark::State& state) {
  const auto table = RandomPoints(kKernelBenchTable, kPaperFeatureDim, 21);
  const auto query = RandomPoints(1, kPaperFeatureDim, 22)[0];
  std::vector<double> weights(kPaperFeatureDim);
  Rng rng(23);
  for (double& w : weights) w = rng.UniformDouble(0.0, 2.0);
  const WeightedL2Distance metric(weights);
  double sink = 0.0;
  for (auto _ : state) {
    for (const FeatureVector& v : table) sink += metric.Compare(v, query);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelBenchTable));
}
BENCHMARK(BM_WeightedL2PerVector);

void BM_SquaredL2PerVector(benchmark::State& state) {
  const auto table = RandomPoints(kKernelBenchTable, kPaperFeatureDim, 21);
  const auto query = RandomPoints(1, kPaperFeatureDim, 22)[0];
  double sink = 0.0;
  for (auto _ : state) {
    for (const FeatureVector& v : table) sink += SquaredL2(v, query);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelBenchTable));
}
BENCHMARK(BM_SquaredL2PerVector);

void KernelSweep(benchmark::State& state, SimdLevel level, bool weighted) {
  const DistanceKernels& kernels = KernelsFor(level);
  if (level == SimdLevel::kAvx2 && kernels.level != SimdLevel::kAvx2) {
    state.SkipWithError("host CPU lacks AVX2+FMA");
    return;
  }
  const auto points = RandomPoints(kKernelBenchTable, kPaperFeatureDim, 21);
  const FeatureBlockTable table(points);
  const auto query = RandomPoints(1, kPaperFeatureDim, 22)[0];
  std::vector<double> weights(kPaperFeatureDim);
  Rng rng(23);
  for (double& w : weights) w = rng.UniformDouble(0.0, 2.0);
  double out[kBlockWidth];
  double sink = 0.0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < table.num_blocks(); ++b) {
      if (weighted) {
        kernels.weighted_l2(table.block(b), query.data(), weights.data(),
                            table.dim(), out);
      } else {
        kernels.squared_l2(table.block(b), query.data(), table.dim(), out);
      }
      sink += out[0];
    }
    AddBlockBatches(table.num_blocks());
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKernelBenchTable));
}

void BM_WeightedL2BlockedScalar(benchmark::State& state) {
  KernelSweep(state, SimdLevel::kScalar, /*weighted=*/true);
}
BENCHMARK(BM_WeightedL2BlockedScalar);

void BM_WeightedL2BlockedAvx2(benchmark::State& state) {
  KernelSweep(state, SimdLevel::kAvx2, /*weighted=*/true);
}
BENCHMARK(BM_WeightedL2BlockedAvx2);

void BM_SquaredL2BlockedScalar(benchmark::State& state) {
  KernelSweep(state, SimdLevel::kScalar, /*weighted=*/false);
}
BENCHMARK(BM_SquaredL2BlockedScalar);

void BM_SquaredL2BlockedAvx2(benchmark::State& state) {
  KernelSweep(state, SimdLevel::kAvx2, /*weighted=*/false);
}
BENCHMARK(BM_SquaredL2BlockedAvx2);

void BM_GatherTile(benchmark::State& state) {
  const auto points = RandomPoints(kKernelBenchTable, kPaperFeatureDim, 21);
  const FeatureBlockTable table(points);
  std::vector<ImageId> ids(kBlockWidth);
  Rng rng(29);
  for (ImageId& id : ids) {
    id = static_cast<ImageId>(rng.UniformInt(kKernelBenchTable));
  }
  std::vector<double> tile(table.dim() * kBlockWidth);
  for (auto _ : state) {
    table.GatherTile(ids.data(), ids.size(), tile.data());
    benchmark::DoNotOptimize(tile.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlockWidth));
}
BENCHMARK(BM_GatherTile);

void BM_BruteForceKnn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto table = RandomPoints(n, kPaperFeatureDim, 2);
  const auto query = RandomPoints(1, kPaperFeatureDim, 3)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceKnn(table, query, 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BruteForceKnn)->Arg(1000)->Arg(5000)->Arg(15000);

void BM_RStarTreeKnn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto store = std::make_shared<const FeatureStore>(
      RandomPoints(n, kPaperFeatureDim, 4));
  std::vector<ImageId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<ImageId>(i);
  RStarTreeOptions options;
  options.max_entries = 100;
  options.min_entries = 40;
  const RStarTree tree = BulkLoadRStarTree(store, ids, options).value();
  const auto query = RandomPoints(1, kPaperFeatureDim, 5)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.KnnSearch(query, 20));
  }
}
BENCHMARK(BM_RStarTreeKnn)->Arg(1000)->Arg(5000)->Arg(15000);

void BM_RStarTreeInsert(benchmark::State& state) {
  const auto store =
      std::make_shared<const FeatureStore>(RandomPoints(2000, 8, 6));
  for (auto _ : state) {
    RStarTreeOptions options;
    options.max_entries = 32;
    options.min_entries = 13;
    RStarTree tree(store, options);
    for (ImageId id = 0; id < store->size(); ++id) {
      benchmark::DoNotOptimize(tree.Insert(id));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RStarTreeInsert);

void BM_KMeans(benchmark::State& state) {
  const auto points = RandomPoints(1000, kPaperFeatureDim, 7);
  for (auto _ : state) {
    KMeansOptions options;
    options.k = static_cast<int>(state.range(0));
    options.max_iterations = 12;
    benchmark::DoNotOptimize(RunKMeans(points, options));
  }
}
BENCHMARK(BM_KMeans)->Arg(8)->Arg(32);

void BM_FeatureExtraction(benchmark::State& state) {
  SubConceptRecipe recipe;
  recipe.texture = TextureKind::kStripes;
  Rng rng(8);
  const Image image = RenderRecipe(recipe, 48, 48, rng);
  const FeatureExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(image));
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_RenderRecipe(benchmark::State& state) {
  SubConceptRecipe recipe;
  recipe.background = BackgroundKind::kNoisy;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RenderRecipe(recipe, 48, 48, rng));
  }
}
BENCHMARK(BM_RenderRecipe);

/// Multimodal points (well-separated Gaussian modes) so relevance feedback
/// decomposes into many neighborhoods; unimodal data would collapse the QD
/// session into a single localized subquery and leave nothing to fan out.
std::vector<FeatureVector> ClusteredPoints(std::size_t n, std::size_t dim,
                                           std::size_t modes,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> centers;
  for (std::size_t m = 0; m < modes; ++m) {
    FeatureVector c(dim);
    for (std::size_t d = 0; d < dim; ++d) c[d] = 6.0 * rng.Gaussian();
    centers.push_back(std::move(c));
  }
  std::vector<FeatureVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FeatureVector& c = centers[i % modes];
    FeatureVector v(dim);
    for (std::size_t d = 0; d < dim; ++d) v[d] = c[d] + rng.Gaussian();
    out.push_back(std::move(v));
  }
  return out;
}

/// Shared RFS over multimodal random points for the thread-sweep
/// benchmarks; built once so every pool width measures the same structure.
const RfsTree& SweepRfs() {
  static const RfsTree* tree = [] {
    const auto points = ClusteredPoints(20000, kPaperFeatureDim, 24, 11);
    RfsBuildOptions options;
    options.tree.max_entries = 100;
    options.tree.min_entries = 40;
    options.representatives.fraction = 0.05;
    options.representatives.min_per_node = 3;
    return new RfsTree(RfsBuilder::Build(points, options).value());
  }();
  return *tree;
}

/// The localized-subquery stage: `QdSession::Finalize` fans one multipoint
/// k-NN per frontier leaf across the pool (~70 subqueries after the
/// scripted rounds below). The feedback rounds run once during setup —
/// `Finalize` is deterministic and repeatable, so only the final round is
/// inside the timed region.
void BM_QdLocalizedSubqueries_Threads(benchmark::State& state) {
  const RfsTree& rfs = SweepRfs();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  QdOptions options;
  options.seed = 42;
  options.display_size = 40;
  options.pool = &pool;
  QdSession session(&rfs, options);
  auto display = session.Start();
  for (int round = 0; round < 3; ++round) {
    std::vector<ImageId> picks;
    for (const DisplayGroup& group : display) {
      picks.insert(picks.end(), group.images.begin(), group.images.end());
    }
    auto next = session.Feedback(picks);
    if (!next.ok()) break;
    display = std::move(next).value();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Finalize(200));
  }
  state.counters["subqueries"] = static_cast<double>(
      session.stats().localized_subqueries / state.iterations());
}
BENCHMARK(BM_QdLocalizedSubqueries_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The repeat-scan payoff of the result cache: the same scripted session
/// finalized over and over, uncached (arg 0) vs through a CacheManager
/// (arg 1). With the cache the first iteration computes and inserts; every
/// later one serves the finalized top-k (and, beneath it, the per-leaf
/// scans) from memory. Rankings are byte-identical either way — the
/// speedup is the whole point, and the cache hit/miss counters land in the
/// exported metrics snapshot ($QDCBIR_METRICS_JSON / the bench "obs" key).
void BM_QdFinalizeRepeat_Cache(benchmark::State& state) {
  const RfsTree& rfs = SweepRfs();
  ThreadPool pool(4);
  cache::CacheManager::Options cache_options;
  cache_options.budget_bytes = 64ull << 20;
  cache::CacheManager cache_manager(cache_options);
  QdOptions options;
  options.seed = 42;
  options.display_size = 40;
  options.pool = &pool;
  options.cache = state.range(0) != 0 ? &cache_manager : nullptr;
  QdSession session(&rfs, options);
  auto display = session.Start();
  for (int round = 0; round < 3; ++round) {
    std::vector<ImageId> picks;
    for (const DisplayGroup& group : display) {
      picks.insert(picks.end(), group.images.begin(), group.images.end());
    }
    auto next = session.Feedback(picks);
    if (!next.ok()) break;
    display = std::move(next).value();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Finalize(200));
  }
  const cache::CacheStats cache_stats = cache_manager.TotalStats();
  state.counters["cache_hits"] = static_cast<double>(cache_stats.hits);
  state.counters["cache_misses"] = static_cast<double>(cache_stats.misses);
  state.counters["cache_bytes"] =
      static_cast<double>(cache_stats.bytes_used);
}
BENCHMARK(BM_QdFinalizeRepeat_Cache)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The chunked distance scan behind `QclusterEngine`: per-chunk top-k heaps
/// over a flat feature table, merged once at the end.
void BM_DistanceScanTopK_Threads(benchmark::State& state) {
  static const auto& table = *new auto(RandomPoints(40000, kPaperFeatureDim,
                                                    12));
  const auto query = RandomPoints(1, kPaperFeatureDim, 13)[0];
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kTopK = 64;
  const auto better = [](const KnnMatch& a, const KnnMatch& b) {
    if (a.distance_squared != b.distance_squared) {
      return a.distance_squared < b.distance_squared;
    }
    return a.id < b.id;
  };
  for (auto _ : state) {
    const std::size_t chunks = std::min(table.size(), pool.size() * 4);
    std::vector<std::vector<KnnMatch>> partial(chunks);
    pool.ParallelForChunks(
        0, table.size(), chunks,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          std::vector<KnnMatch>& top = partial[chunk];
          for (std::size_t i = lo; i < hi; ++i) {
            KnnMatch n{static_cast<ImageId>(i), SquaredL2(table[i], query)};
            if (top.size() >= kTopK && !better(n, top.front())) continue;
            top.push_back(n);
            std::push_heap(top.begin(), top.end(), better);
            if (top.size() > kTopK) {
              std::pop_heap(top.begin(), top.end(), better);
              top.pop_back();
            }
          }
        });
    std::vector<KnnMatch> merged;
    for (const auto& p : partial) merged.insert(merged.end(), p.begin(),
                                                p.end());
    std::sort(merged.begin(), merged.end(), better);
    if (merged.size() > kTopK) merged.resize(kTopK);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_DistanceScanTopK_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// The overlapped snapshot loader: positioned chunk reads + CRC + decode
/// fanned across the pool, against the sequential reference at Arg(1).
/// Feeds the span.io.load.* histograms that back the async-I/O acceptance
/// numbers in docs/snapshot_format.md.
void BM_SnapshotLoad_Threads(benchmark::State& state) {
  static const std::string* path = [] {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 30;
    const Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 2000;
    options.image_width = 32;
    options.image_height = 32;
    const ImageDatabase db =
        DatabaseSynthesizer::Synthesize(catalog, options).value();
    const char* tmp = std::getenv("TMPDIR");
    auto* p = new std::string(std::string(tmp ? tmp : "/tmp") +
                              "/qdcbir_bench_snapshot.bin");
    if (!DatabaseIo::SaveDatabase(db, *p).ok()) std::abort();
    return p;
  }();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  SnapshotLoadOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    auto db = DatabaseIo::LoadDatabase(*path, options);
    if (!db.ok()) std::abort();
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_SnapshotLoad_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_HaarTransform(benchmark::State& state) {
  Rng rng(10);
  std::vector<double> input(48 * 48);
  for (double& v : input) v = rng.UniformDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HaarTransform2D(input, 48, 48));
  }
}
BENCHMARK(BM_HaarTransform);

}  // namespace
}  // namespace qdcbir

// Custom main (instead of BENCHMARK_MAIN) so the run can export its
// observability state deterministically: the metrics registry snapshot goes
// to $QDCBIR_METRICS_JSON if set, and an active $QDCBIR_TRACE tracer is
// flushed before exit rather than relying on atexit ordering.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  // $QDCBIR_PROFILE_HZ arms the background sampling profiler for the whole
  // run — how the profiler's own overhead is measured (docs/profiling.md):
  // compare a sweep with it unset against QDCBIR_PROFILE_HZ=47.
  bool profiling = false;
  if (const char* hz_env = std::getenv("QDCBIR_PROFILE_HZ")) {
    qdcbir::obs::Profiler::RegisterCurrentThread();
    qdcbir::obs::ProfilerOptions profiler_options;
    profiler_options.hz = std::atoi(hz_env);
    if (profiler_options.hz <= 0) {
      profiler_options.hz = qdcbir::obs::Profiler::kBackgroundHz;
    }
    std::string error;
    profiling =
        qdcbir::obs::Profiler::Global().Start(profiler_options, &error);
    if (!profiling) {
      std::fprintf(stderr, "[bench_micro] profiler unavailable: %s\n",
                   error.c_str());
    }
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (profiling) qdcbir::obs::Profiler::Global().Stop();

  if (const char* path = std::getenv("QDCBIR_METRICS_JSON")) {
    std::ofstream out(path);
    out << qdcbir::obs::MetricsRegistry::Global().SnapshotJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "[bench_micro] cannot write metrics to %s\n", path);
      return 1;
    }
  }
  if (qdcbir::obs::Tracer::Global().enabled()) {
    std::string error;
    if (!qdcbir::obs::Tracer::Global().Stop(&error)) {
      std::fprintf(stderr, "[bench_micro] trace flush failed: %s\n",
                   error.c_str());
      return 1;
    }
  }
  return 0;
}
