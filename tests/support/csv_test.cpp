#include "support/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/rng.h"
#include "support/str.h"

namespace ldafp::support {
namespace {

TEST(CsvTest, ParsesRowsAndHeader) {
  const auto table = parse_csv("a,b\n1,2\n3,4\n", true);
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.header[0], "a");
  ASSERT_EQ(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[1][1], 4.0);
  EXPECT_EQ(table.cols(), 2u);
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  const auto table = parse_csv("# comment\n\n1,2\n# more\n3,4\n", false);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.header.empty());
}

TEST(CsvTest, HandlesCrLf) {
  const auto table = parse_csv("1,2\r\n3,4\r\n", false);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[0][1], 2.0);
}

TEST(CsvTest, ThrowsOnRaggedRows) {
  EXPECT_THROW(parse_csv("1,2\n3\n", false), IoError);
}

TEST(CsvTest, ThrowsOnNonNumericCell) {
  EXPECT_THROW(parse_csv("1,x\n", false), IoError);
}

TEST(CsvTest, ThrowsWhenRowWidthDisagreesWithHeader) {
  EXPECT_THROW(parse_csv("a,b,c\n1,2\n", true), IoError);
}

TEST(CsvTest, ThrowsOnMissingFile) {
  EXPECT_THROW(read_csv("/nonexistent/definitely_missing.csv", false),
               IoError);
}

// Deterministic mutation fuzz of parse_csv: valid numeric CSV texts are
// mutated — junk written over a cell, commas inserted or removed,
// nan/inf/hex-float/overlong tokens, comment and blank lines, CRLF line
// ends, embedded NULs, byte overwrites and truncation — from a fixed
// support::Rng seed for a fixed number of mutants.  Every mutant must
// either throw IoError or parse to a rectangular table: every row
// cols() wide, and the header that wide too when there is one.  No other
// exception type may escape.

/// One valid CSV text: 0..8 rows of 1..6 numbers, optional header,
/// comment and blank lines, LF or CRLF line ends.
std::string seed_csv(Rng& rng, bool has_header) {
  const auto cols = rng.uniform_int(1, 6);
  const auto rows = rng.uniform_int(0, 8);
  const std::string eol = rng.bernoulli(0.3) ? "\r\n" : "\n";
  std::string text;
  if (rng.bernoulli(0.3)) text += "# generated" + eol;
  if (has_header) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (c != 0) text += ',';
      text += "col";
      text += std::to_string(c);
    }
    text += eol;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (c != 0) text += ',';
      const double v = rng.uniform(-1e3, 1e3);
      text += rng.bernoulli(0.5) ? format_double(v, 6)
                                 : std::to_string(rng.uniform_int(-99, 99));
    }
    text += eol;
    if (rng.bernoulli(0.1)) text += eol;  // blank line
  }
  return text;
}

std::string special_token(Rng& rng) {
  static const char* const kTokens[] = {
      "nan", "-nan", "NaN", "inf", "-inf", "infinity", "0x1p3", "0X1.8p-2",
      "1e999", "-1e-999", "1e", "+1", "--1", "1.2.3", ".", "-", "", " ",
      "1 2", "abc", "\x01", "\xff", "#", "1#2"};
  const auto n = static_cast<std::int64_t>(std::size(kTokens));
  const auto pick = rng.uniform_int(0, n);
  if (pick == n) {  // overlong digit string
    return std::string(static_cast<std::size_t>(rng.uniform_int(300, 700)),
                       '7') +
           ".5";
  }
  return kTokens[pick];
}

void mutate_csv(std::string& text, Rng& rng) {
  const auto pos = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  switch (rng.uniform_int(0, 8)) {
    case 0:  // insert a comma
      text.insert(pos(text.size()), 1, ',');
      return;
    case 1: {  // remove a comma
      const std::size_t at = text.find(',', pos(text.size()));
      if (at != std::string::npos) text.erase(at, 1);
      return;
    }
    case 2: {  // overwrite the cell around a random position
      const std::size_t p = pos(text.size());
      const std::size_t before = text.find_last_of(",\n", p == 0 ? 0 : p - 1);
      const std::size_t begin =
          p == 0 || before == std::string::npos ? 0 : before + 1;
      std::size_t end = text.find_first_of(",\r\n", begin);
      if (end == std::string::npos) end = text.size();
      text.replace(begin, end - begin, special_token(rng));
      return;
    }
    case 3: {  // comment or blank line at a line start
      const std::size_t nl = text.find('\n', pos(text.size()));
      const std::size_t at = nl == std::string::npos ? 0 : nl + 1;
      static const char* const kLines[] = {"# note\n", "\n", " \t \n",
                                           "  # indented\n", "#,1,2\n"};
      text.insert(at, kLines[rng.uniform_int(0, 4)]);
      return;
    }
    case 4: {  // CRLF line ends, or a lone CR
      if (rng.bernoulli(0.5)) {
        std::string out;
        for (const char ch : text) {
          if (ch == '\n') out += '\r';
          out += ch;
        }
        text = std::move(out);
      } else {
        text.insert(pos(text.size()), 1, '\r');
      }
      return;
    }
    case 5:  // embedded NUL
      text.insert(pos(text.size()), 1, '\0');
      return;
    case 6:  // truncate
      text.resize(pos(text.size()));
      return;
    case 7:  // overwrite one byte
      if (!text.empty()) {
        text[pos(text.size() - 1)] =
            static_cast<char>(rng.uniform_int(0, 255));
      }
      return;
    default:  // junk cell text appended at a random spot
      text.insert(pos(text.size()), special_token(rng));
      return;
  }
}

TEST(CsvFuzzTest, MutatedTextsThrowIoErrorOrParseRectangular) {
  constexpr int kMutants = 6000;
  Rng rng(0xC5F00D);
  int io_errors = 0;
  int parsed_rows = 0;
  int parsed_empty = 0;
  for (int i = 0; i < kMutants; ++i) {
    const bool has_header = rng.bernoulli(0.5);
    std::string text = seed_csv(rng, has_header);
    const auto mutations = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < mutations; ++m) mutate_csv(text, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));
    try {
      const CsvTable table = parse_csv(text, has_header);
      for (const auto& row : table.rows) {
        ASSERT_EQ(row.size(), table.cols());
      }
      if (!table.header.empty()) {
        ASSERT_EQ(table.header.size(), table.cols());
      }
      if (table.rows.empty()) {
        ++parsed_empty;
      } else {
        ++parsed_rows;
      }
    } catch (const IoError&) {
      ++io_errors;
    } catch (const std::exception& e) {
      FAIL() << "unexpected exception: " << e.what();
    }
  }
  // The budget must reach every outcome, or the fuzz proves less than
  // it claims.
  EXPECT_GT(io_errors, 0);
  EXPECT_GT(parsed_rows, 0);
  EXPECT_GT(parsed_empty, 0);
}

}  // namespace
}  // namespace ldafp::support
