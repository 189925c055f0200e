#include "data/io.h"

#include "support/csv.h"
#include "support/error.h"

namespace ldafp::data {

LabeledDataset load_csv(const std::string& path, bool has_header) {
  const support::CsvTable table = support::read_csv(path, has_header);
  LabeledDataset out;
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    if (row.size() < 2) {
      throw IoError("dataset csv: row " + std::to_string(r) +
                    " needs at least one feature and a label");
    }
    const double label_cell = row.back();
    core::Label label;
    if (label_cell == 0.0) {
      label = core::Label::kClassA;
    } else if (label_cell == 1.0) {
      label = core::Label::kClassB;
    } else {
      throw IoError("dataset csv: label must be 0 or 1, got " +
                    std::to_string(label_cell));
    }
    linalg::Vector x(row.size() - 1);
    for (std::size_t c = 0; c + 1 < row.size(); ++c) x[c] = row[c];
    out.add(std::move(x), label);
  }
  return out;
}

}  // namespace ldafp::data
