// Dataset import from CSV (features..., label), enabling users to run
// the trainers on their own recordings.
#pragma once

#include <string>

#include "data/dataset.h"

namespace ldafp::data {

/// Loads a dataset from CSV.  Every row is M feature cells followed by a
/// label cell (0 = class A, 1 = class B).  A '#' header comment and an
/// optional header row are allowed.  Throws IoError on malformed input.
LabeledDataset load_csv(const std::string& path, bool has_header = false);

}  // namespace ldafp::data
