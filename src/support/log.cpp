#include "support/log.h"

#include <cstdio>

namespace ldafp::support {

void log_warn(const std::string& message) {
  std::fprintf(stderr, "[WARN ] %s\n", message.c_str());
}

}  // namespace ldafp::support
