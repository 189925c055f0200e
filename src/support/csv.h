// Minimal CSV reader for dataset import.
//
// Supports the subset of CSV our datasets need: comma separation, optional
// header row, '#'-prefixed comment lines, no quoting.  All cells in data
// rows must parse as doubles.
#pragma once

#include <string>
#include <vector>

namespace ldafp::support {

/// A parsed numeric CSV file: optional header names plus a dense row-major
/// table of doubles (all rows share the same width).
struct CsvTable {
  std::vector<std::string> header;          ///< empty when has_header=false
  std::vector<std::vector<double>> rows;    ///< each row has `cols()` cells

  /// Number of data rows.
  std::size_t size() const { return rows.size(); }
  /// Number of columns (0 for an empty table).
  std::size_t cols() const { return rows.empty() ? header.size()
                                                 : rows.front().size(); }
};

/// Reads a numeric CSV file.  Throws IoError on missing file, ragged rows,
/// or non-numeric cells.  When `has_header` is true the first
/// non-comment line is treated as column names.
CsvTable read_csv(const std::string& path, bool has_header);

/// Parses CSV content from a string (same rules as read_csv).
CsvTable parse_csv(const std::string& content, bool has_header);

}  // namespace ldafp::support
