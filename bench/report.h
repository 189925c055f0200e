// Optional BENCH_*.json output for the benches that take --out FILE.
//
// A bench builds its JSON document in memory and hands it here at the
// end.  Without --out nothing is written, so a run from the repository
// root never overwrites a committed artifact.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

namespace ldafp::bench {

/// Writes `document` and a newline to `path` and says so on stdout; an
/// empty path writes nothing.  Returns false, after printing why, when
/// the file cannot be written.
inline bool write_report(const std::string& path,
                         const std::string& document) {
  if (path.empty()) return true;
  std::ofstream out(path);
  out << document << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace ldafp::bench
