#include "runtime/registry.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hw/rom_image.h"

namespace ldafp::runtime {
namespace {

using linalg::Vector;

core::FixedClassifier make_classifier(double w0) {
  return core::FixedClassifier(fixed::FixedFormat(2, 4),
                               Vector{w0, -0.5, 1.25}, 0.125);
}

TEST(ModelRegistryTest, InstallAssignsIncreasingVersions) {
  ModelRegistry registry;
  const auto v1 = registry.install("bci", make_classifier(0.25));
  const auto v2 = registry.install("bci", make_classifier(0.5));
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v1->name, "bci");
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistryTest, GetResolvesLatestVersion) {
  ModelRegistry registry;
  registry.install("bci", make_classifier(0.25));
  registry.install("bci", make_classifier(0.5));
  const auto latest = registry.get("bci");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
  EXPECT_EQ(registry.get("missing"), nullptr);
}

TEST(ModelRegistryTest, HotSwapKeepsInFlightHandleAlive) {
  ModelRegistry registry;
  registry.install("bci", make_classifier(0.25));
  const ModelHandle held = registry.get("bci");
  registry.install("bci", make_classifier(0.5));
  EXPECT_EQ(registry.prune("bci"), 1u);  // drop version 1
  EXPECT_EQ(registry.list()[0].version_count, 1u);
  // The held handle still scores version 1's exact bits.
  EXPECT_EQ(held->version, 1u);
  EXPECT_DOUBLE_EQ(held->classifier.weights_real()[0], 0.25);
  const auto results = held->scorer.score({Vector{1.0, 0.0, 0.0}});
  EXPECT_EQ(results.size(), 1u);
}

TEST(ModelRegistryTest, InstallFromRomImageRoundTripsBits) {
  ModelRegistry registry;
  const auto clf = make_classifier(0.25);
  const auto image = hw::RomImage::from_classifier(clf);
  const auto handle = registry.install("rom", image);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->classifier.format(), clf.format());
  for (double x0 : {-2.0, -0.5, 0.0, 0.5, 2.0}) {
    EXPECT_EQ(handle->classifier.classify(Vector{x0, 0.5, -0.5}),
              clf.classify(Vector{x0, 0.5, -0.5}));
  }
}

TEST(ModelRegistryTest, RemoveAndListAndPrune) {
  ModelRegistry registry;
  registry.install("a", make_classifier(0.25));
  registry.install("a", make_classifier(0.5));
  registry.install("b", make_classifier(0.75));
  const auto rows = registry.list();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[0].latest_version, 2u);
  EXPECT_EQ(rows[0].version_count, 2u);
  EXPECT_EQ(rows[0].dim, 3u);
  EXPECT_EQ(rows[0].format, "Q2.4");
  EXPECT_EQ(registry.prune("a"), 1u);
  EXPECT_EQ(registry.prune("a"), 0u);
  EXPECT_EQ(registry.prune("missing"), 0u);
  EXPECT_EQ(registry.get("a")->version, 2u);
  // Pruning keeps the version sequence: the next install is version 3.
  EXPECT_EQ(registry.install("a", make_classifier(0.5))->version, 3u);
  EXPECT_TRUE(registry.remove("b"));
  EXPECT_FALSE(registry.remove("b"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistryTest, ConcurrentInstallsGetDistinctVersions) {
  ModelRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kInstallsPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kInstallsPerThread; ++i) {
        registry.install("shared", make_classifier(0.25));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto latest = registry.get("shared");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version,
            static_cast<std::uint64_t>(kThreads * kInstallsPerThread));
  EXPECT_EQ(registry.list()[0].version_count,
            static_cast<std::size_t>(kThreads * kInstallsPerThread));
}

}  // namespace
}  // namespace ldafp::runtime
