#include "data/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "support/error.h"

namespace ldafp::data {
namespace {

using core::Label;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(DataIoTest, LoadReadsFeaturesAndLabels) {
  const std::string path = temp_path("dataset_roundtrip.csv");
  std::ofstream(path) << "1.5,-2,0\n0.25,3,1\n";
  const LabeledDataset back = load_csv(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.labels[0], Label::kClassA);
  EXPECT_EQ(back.labels[1], Label::kClassB);
  EXPECT_DOUBLE_EQ(back.samples[0][0], 1.5);
  EXPECT_DOUBLE_EQ(back.samples[1][1], 3.0);
  std::remove(path.c_str());
}

TEST(DataIoTest, LoadRejectsBadLabel) {
  const std::string path = temp_path("bad_label.csv");
  std::ofstream(path) << "1.0,2.0,0.5\n";
  EXPECT_THROW(load_csv(path), ldafp::IoError);
  std::remove(path.c_str());
}

TEST(DataIoTest, LoadRejectsLabelOnlyRows) {
  const std::string path = temp_path("label_only.csv");
  std::ofstream(path) << "0\n";
  EXPECT_THROW(load_csv(path), ldafp::IoError);
  std::remove(path.c_str());
}

TEST(DataIoTest, LoadHonoursCommentsAndHeader) {
  const std::string path = temp_path("with_header.csv");
  std::ofstream(path) << "# exported dataset\nf0,f1,label\n1,2,0\n3,4,1\n";
  const LabeledDataset data = load_csv(path, /*has_header=*/true);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.dim(), 2u);
  std::remove(path.c_str());
}

TEST(DataIoTest, MissingFileThrows) {
  EXPECT_THROW(load_csv("/no/such/file.csv"), ldafp::IoError);
}

}  // namespace
}  // namespace ldafp::data
