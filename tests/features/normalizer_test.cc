#include "qdcbir/features/normalizer.h"

#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "qdcbir/core/rng.h"
#include "qdcbir/core/stats.h"

namespace qdcbir {
namespace {

std::vector<FeatureVector> MakeData(std::size_t n, std::size_t dim,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = rng.Gaussian(static_cast<double>(d), 1.0 + d);
    }
    out.push_back(std::move(v));
  }
  return out;
}

TEST(NormalizerTest, UnfittedFailsPrecondition) {
  FeatureNormalizer n;
  EXPECT_FALSE(n.fitted());
  EXPECT_EQ(n.Transform(FeatureVector{1.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NormalizerTest, FitRejectsEmptyAndMixedDims) {
  FeatureNormalizer n;
  EXPECT_EQ(n.Fit({}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(n.Fit({FeatureVector{1.0}, FeatureVector{1.0, 2.0}}).code(),
            StatusCode::kInvalidArgument);
}

TEST(NormalizerTest, TransformedDataIsStandardized) {
  auto data = MakeData(500, 4, 9);
  FeatureNormalizer n;
  ASSERT_TRUE(n.Fit(data).ok());
  ASSERT_TRUE(n.TransformInPlace(data).ok());

  for (std::size_t d = 0; d < 4; ++d) {
    std::vector<double> column;
    for (const FeatureVector& v : data) column.push_back(v[d]);
    EXPECT_NEAR(Mean(column), 0.0, 1e-9);
    EXPECT_NEAR(StdDev(column), 1.0, 1e-9);
  }
}

TEST(NormalizerTest, ConstantDimensionMapsToZero) {
  std::vector<FeatureVector> data = {FeatureVector{5.0, 1.0},
                                     FeatureVector{5.0, 3.0}};
  FeatureNormalizer n;
  ASSERT_TRUE(n.Fit(data).ok());
  const FeatureVector t = n.Transform(FeatureVector{5.0, 2.0}).value();
  EXPECT_EQ(t[0], 0.0);
  EXPECT_NEAR(t[1], 0.0, 1e-9);  // 2.0 is the mean of dim 1
}

TEST(NormalizerTest, InverseTransformRoundTrips) {
  auto data = MakeData(100, 3, 11);
  FeatureNormalizer n;
  ASSERT_TRUE(n.Fit(data).ok());
  const FeatureVector original = data[7];
  const FeatureVector t = n.Transform(original).value();
  const FeatureVector back = n.InverseTransform(t).value();
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(back[d], original[d], 1e-9);
  }
}

TEST(NormalizerTest, TransformRejectsWrongDim) {
  FeatureNormalizer n;
  ASSERT_TRUE(n.Fit(MakeData(10, 3, 1)).ok());
  EXPECT_EQ(n.Transform(FeatureVector{1.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NormalizerTest, SerializationRoundTrip) {
  FeatureNormalizer n;
  ASSERT_TRUE(n.Fit(MakeData(50, 5, 13)).ok());
  const std::string blob = n.Serialize();
  StatusOr<FeatureNormalizer> restored = FeatureNormalizer::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->mean(), n.mean());
  EXPECT_EQ(restored->stddev(), n.stddev());
}

TEST(NormalizerTest, DeserializeRejectsCorruptBlobs) {
  EXPECT_FALSE(FeatureNormalizer::Deserialize("").ok());
  EXPECT_FALSE(FeatureNormalizer::Deserialize("short").ok());
  FeatureNormalizer n;
  ASSERT_TRUE(n.Fit(MakeData(10, 2, 1)).ok());
  std::string blob = n.Serialize();
  blob.pop_back();
  EXPECT_FALSE(FeatureNormalizer::Deserialize(blob).ok());
}

TEST(NormalizerTest, DeserializeBoundsDimBeforeAllocating) {
  // dim 0 is an unfitted normalizer, with nothing to copy.
  const std::string empty(sizeof(std::uint64_t), '\0');
  EXPECT_EQ(FeatureNormalizer().Serialize(), empty);
  StatusOr<FeatureNormalizer> restored = FeatureNormalizer::Deserialize(empty);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored->fitted());
  // Forged dims whose 16 bytes per dimension wrap to exactly the payload
  // present are refused before any resize.
  const std::uint64_t wrap = std::uint64_t{1} << 60;
  for (const auto& [dim, payload] :
       {std::pair<std::uint64_t, std::size_t>{wrap, 0},
        std::pair<std::uint64_t, std::size_t>{wrap + 1, 16}}) {
    std::string forged(sizeof(dim) + payload, '\0');
    std::memcpy(forged.data(), &dim, sizeof(dim));
    EXPECT_EQ(FeatureNormalizer::Deserialize(forged).status().code(),
              StatusCode::kIoError)
        << dim;
  }
}

}  // namespace
}  // namespace qdcbir
