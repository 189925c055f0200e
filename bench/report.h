// Optional BENCH_*.json output for the benches that take --out FILE.
//
// A bench builds its JSON document in memory and hands it here at the
// end.  Without --out nothing is written, so a run from the repository
// root never overwrites a committed artifact.
#pragma once

#include <sys/personality.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "fixed/simd.h"
#include "support/json.h"

#ifndef LDAFP_BENCH_BUILD_TYPE
#define LDAFP_BENCH_BUILD_TYPE "unknown"
#endif

namespace ldafp::bench {

/// Writes the `"host"` object every BENCH_*.json carries, the fields of
/// perfbench's run header that describe the machine and the build: the
/// online CPUs, the CMake build type, the active SIMD scoring backend
/// and whether the address space is randomized (the heap layout moves
/// training time; see perfbench/README.md).
inline void write_host_header(support::JsonWriter& json) {
  const int persona = personality(0xffffffff);
  json.key("host");
  json.begin_object();
  json.kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.kv("build_type", LDAFP_BENCH_BUILD_TYPE);
  json.kv("simd_backend",
          fixed::simd::to_string(fixed::simd::active_backend()));
  json.kv("aslr", persona == -1 || (persona & ADDR_NO_RANDOMIZE) == 0);
  json.end_object();
}

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
