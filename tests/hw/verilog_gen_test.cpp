#include "hw/verilog_gen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "support/rng.h"

namespace ldafp::hw {
namespace {

using linalg::Vector;

core::FixedClassifier sample_classifier() {
  return core::FixedClassifier(fixed::FixedFormat(2, 4),
                               Vector{0.25, -1.5, 1.0}, 0.125);
}

TEST(VerilogGenTest, ModuleHasExpectedStructure) {
  const std::string v = generate_classifier_verilog(sample_classifier());
  EXPECT_NE(v.find("module ldafp_classifier"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("localparam integer M = 3;"), std::string::npos);
  EXPECT_NE(v.find("localparam integer W = 6;"), std::string::npos);
  EXPECT_NE(v.find("localparam integer F = 4;"), std::string::npos);
  // Wide accumulator: K + 2F = 10 bits.
  EXPECT_NE(v.find("localparam integer ACCW = 10;"), std::string::npos);
  // One ROM entry per weight.
  EXPECT_NE(v.find("rom[0]"), std::string::npos);
  EXPECT_NE(v.find("rom[2]"), std::string::npos);
  EXPECT_EQ(v.find("rom[3]"), std::string::npos);
}

TEST(VerilogGenTest, RomEncodesTwosComplement) {
  // Weight -1.5 in Q2.4 is raw -24 -> 6 bits -> 0x28.
  const std::string v = generate_classifier_verilog(sample_classifier());
  EXPECT_NE(v.find("6'h28"), std::string::npos);
  // Weight 0.25 -> raw 4.
  EXPECT_NE(v.find("6'h4"), std::string::npos);
}

TEST(VerilogGenTest, ZeroFracBitsOmitsRoundingLogic) {
  const core::FixedClassifier clf(fixed::FixedFormat(4, 0),
                                  Vector{3.0, -2.0}, 1.0);
  const std::string v = generate_classifier_verilog(clf);
  EXPECT_EQ(v.find("round_up"), std::string::npos);
  EXPECT_NE(v.find("F = 0: no rounding"), std::string::npos);
}

TEST(VerilogGenTest, ModuleNameIsLdafpClassifier) {
  const core::FixedClassifier clf = sample_classifier();
  EXPECT_NE(generate_classifier_verilog(clf).find("module ldafp_classifier ("),
            std::string::npos);
  const std::string tb = generate_testbench_verilog(
      clf, make_golden_vectors(clf, {Vector{0.5, -0.25, 1.0}}));
  EXPECT_NE(tb.find("module ldafp_classifier_tb;"), std::string::npos);
  EXPECT_NE(tb.find("  ldafp_classifier dut ("), std::string::npos);
}

TEST(VerilogGenTest, GoldenVectorsMatchCppModel) {
  const core::FixedClassifier clf = sample_classifier();
  support::Rng rng(3);
  std::vector<Vector> inputs;
  for (int i = 0; i < 50; ++i) {
    Vector x(3);
    for (std::size_t j = 0; j < 3; ++j) x[j] = rng.uniform(-2.0, 2.0);
    inputs.push_back(std::move(x));
  }
  const auto vectors = make_golden_vectors(clf, inputs);
  ASSERT_EQ(vectors.size(), 50u);
  for (const auto& v : vectors) {
    EXPECT_EQ(v.expected_class_a,
              clf.classify(v.features) == core::Label::kClassA);
  }
}

TEST(VerilogGenTest, TestbenchEmbedsGoldenExpectations) {
  const core::FixedClassifier clf = sample_classifier();
  std::vector<GoldenVector> vectors(2);
  vectors[0].features = Vector{1.0, 1.0, 1.0};
  vectors[0].expected_class_a = true;
  vectors[1].features = Vector{-1.0, -1.0, -1.0};
  vectors[1].expected_class_a = false;
  const std::string tb = generate_testbench_verilog(clf, vectors);
  EXPECT_NE(tb.find("1'b1);"), std::string::npos);
  EXPECT_NE(tb.find("1'b0);"), std::string::npos);
  EXPECT_NE(tb.find("$fatal"), std::string::npos);
  EXPECT_NE(tb.find("PASS: 2 vectors"), std::string::npos);
  EXPECT_NE(tb.find("ldafp_classifier_tb"), std::string::npos);
}

TEST(VerilogGenTest, SaveWritesBothFiles) {
  const std::string dir = ::testing::TempDir() + "rtl_out";
  const core::FixedClassifier clf = sample_classifier();
  const auto vectors =
      make_golden_vectors(clf, {Vector{0.5, 0.5, 0.5}});
  save_verilog(dir, clf, vectors);
  EXPECT_TRUE(std::filesystem::exists(dir + "/ldafp_classifier.v"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/ldafp_classifier_tb.v"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ldafp::hw
