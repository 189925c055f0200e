// Warnings from long-running solvers.
//
// The branch-and-bound trainer reports recoverable trouble (a failed
// warm start) through log_warn, one line on stderr.
#pragma once

#include <string>

namespace ldafp::support {

/// Writes "[WARN ] message" as one line to stderr.
void log_warn(const std::string& message);

}  // namespace ldafp::support
