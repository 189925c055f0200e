#include "support/csv.h"

#include <fstream>
#include <sstream>

#include "support/error.h"
#include "support/str.h"

namespace ldafp::support {
namespace {

bool is_comment_or_blank(const std::string& line) {
  const std::string t = trim(line);
  return t.empty() || t[0] == '#';
}

}  // namespace

CsvTable parse_csv(const std::string& content, bool has_header) {
  CsvTable table;
  std::istringstream stream(content);
  std::string line;
  bool header_pending = has_header;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (is_comment_or_blank(line)) continue;
    const auto cells = split(line, ',');
    if (header_pending) {
      for (const auto& cell : cells) table.header.push_back(trim(cell));
      header_pending = false;
      continue;
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (const auto& cell : cells) {
      double value = 0.0;
      if (!parse_double(cell, value)) {
        throw IoError("csv: non-numeric cell '" + cell + "' on line " +
                      std::to_string(line_no));
      }
      row.push_back(value);
    }
    if (!table.rows.empty() && row.size() != table.rows.front().size()) {
      throw IoError("csv: ragged row on line " + std::to_string(line_no));
    }
    if (!table.header.empty() && row.size() != table.header.size()) {
      throw IoError("csv: row width does not match header on line " +
                    std::to_string(line_no));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

CsvTable read_csv(const std::string& path, bool has_header) {
  std::ifstream file(path);
  if (!file) throw IoError("csv: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_csv(buffer.str(), has_header);
}

}  // namespace ldafp::support
