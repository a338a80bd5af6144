// A terminal stand-in for the paper's ImageGrouper-based GUI (Section 4):
// browse representative images, mark the relevant ones by number, watch the
// query decompose, and retrieve the final grouped results.
//
// Commands at the prompt:
//   1 3 7        mark the displayed images #1, #3 and #7 as relevant and
//                advance one feedback round
//   r            "Random" button — re-roll the current display
//   f            finish: run the localized k-NN subqueries and show results
//   q            quit
//
// Run:  ./build/examples/interactive_cli [images]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "qdcbir/dataset/catalog.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

using namespace qdcbir;

namespace {

void ShowDisplay(const ImageDatabase& db,
                 const std::vector<DisplayGroup>& display) {
  int index = 1;
  for (const DisplayGroup& group : display) {
    std::printf("-- subquery node %u --\n", group.node);
    for (const ImageId id : group.images) {
      std::printf("  [%2d] %s\n", index++, db.LabelOf(id).c_str());
    }
  }
  std::printf("mark relevant numbers, 'r' for random, 'f' to finish, "
              "'q' to quit > ");
  std::fflush(stdout);
}

std::vector<ImageId> Flatten(const std::vector<DisplayGroup>& display) {
  std::vector<ImageId> flat;
  for (const DisplayGroup& g : display) {
    flat.insert(flat.end(), g.images.begin(), g.images.end());
  }
  return flat;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t total_images =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 4000;

  StatusOr<Catalog> catalog = Catalog::Build();
  if (!catalog.ok()) return 1;
  SynthesizerOptions synth;
  synth.total_images = total_images;
  synth.extract_viewpoint_channels = false;
  std::printf("building a %zu-image database (a few seconds)...\n",
              total_images);
  StatusOr<ImageDatabase> db = DatabaseSynthesizer::Synthesize(*catalog, synth);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), RfsBuildOptions{});
  if (!rfs.ok()) {
    std::fprintf(stderr, "%s\n", rfs.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "ready: %zu images, RFS height %d, %zu representatives.\n"
      "You are the relevance-feedback user. Labels reveal the ground truth "
      "(the paper's users saw pixels instead).\n\n",
      db->size(), rfs->height(), rfs->CountLeafRepresentatives());

  QdSession session(&*rfs, QdOptions{});
  auto display = session.Start();
  ShowDisplay(*db, display);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "q") return 0;
    if (line == "r") {
      display = session.Resample();
      ShowDisplay(*db, display);
      continue;
    }
    if (line == "f") {
      StatusOr<QdResult> result = session.Finalize(24);
      if (!result.ok()) {
        std::printf("cannot finish yet: %s\n",
                    result.status().message().c_str());
        ShowDisplay(*db, display);
        continue;
      }
      std::printf("\nfinal results (%zu groups):\n", result->groups.size());
      for (const ResultGroup& group : result->groups) {
        std::printf("-- group from subcluster %u (score %.2f) --\n",
                    group.leaf, group.ranking_score);
        for (const KnnMatch& m : group.images) {
          std::printf("   %s\n", db->LabelOf(m.id).c_str());
        }
      }
      return 0;
    }

    // Parse marked numbers.
    std::istringstream in(line);
    const std::vector<ImageId> flat = Flatten(display);
    std::vector<ImageId> picks;
    int number = 0;
    while (in >> number) {
      if (number >= 1 && number <= static_cast<int>(flat.size())) {
        picks.push_back(flat[static_cast<std::size_t>(number - 1)]);
      }
    }
    StatusOr<std::vector<DisplayGroup>> next = session.Feedback(picks);
    if (!next.ok()) {
      std::printf("feedback failed: %s\n", next.status().message().c_str());
    } else {
      display = std::move(next).value();
      std::printf("\nround %d — %zu active subquer%s\n", session.round(),
                  session.frontier().size(),
                  session.frontier().size() == 1 ? "y" : "ies");
    }
    ShowDisplay(*db, display);
  }
  return 0;
}
