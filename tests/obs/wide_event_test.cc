#include "qdcbir/obs/wide_event.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace qdcbir {
namespace obs {
namespace {

std::string UniquePath(const std::string& stem) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "qdcbir_wide_event";
  std::filesystem::create_directories(dir);
  return (dir / (stem + ".jsonl")).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(WideEventSink, AppendsOneLinePerEvent) {
  const std::string path = UniquePath("append");
  std::filesystem::remove(path);
  WideEventSink sink({path, 1 << 20});
  sink.Emit("{\"a\":1}");
  sink.Emit("{\"b\":2}");
  EXPECT_EQ(sink.emitted(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(ReadAll(path), "{\"a\":1}\n{\"b\":2}\n");
}

TEST(WideEventSink, RotatesPastTheSizeCap) {
  const std::string path = UniquePath("rotate");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  const std::string event(40, 'x');  // 41 bytes per line with the newline
  WideEventSink sink({path, 64});
  sink.Emit(event);  // live file: 41 bytes
  sink.Emit(event);  // would reach 82 > 64: rotates first
  EXPECT_EQ(sink.rotations(), 1u);
  EXPECT_EQ(sink.emitted(), 2u);
  EXPECT_EQ(ReadAll(path), event + "\n");
  EXPECT_EQ(ReadAll(sink.rotated_path()), event + "\n");
  // The next rollover replaces the previous one (bounded disk usage).
  sink.Emit(event);
  EXPECT_EQ(sink.rotations(), 2u);
  EXPECT_EQ(ReadAll(sink.rotated_path()), event + "\n");
}

TEST(WideEventSink, ResumesLiveFileSizeAcrossRestart) {
  const std::string path = UniquePath("resume");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  const std::string event(40, 'x');
  {
    WideEventSink sink({path, 64});
    sink.Emit(event);
  }
  WideEventSink resumed({path, 64});
  resumed.Emit(event);  // 41 existing + 41 new > 64: rotation survives restart
  EXPECT_EQ(resumed.rotations(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
}

TEST(WideEventSink, CountsDropsInsteadOfFailing) {
  WideEventSink sink({"/nonexistent-dir/qdcbir/events.jsonl", 1 << 20});
  sink.Emit("{\"a\":1}");
  sink.Emit("{\"b\":2}");
  EXPECT_EQ(sink.emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
