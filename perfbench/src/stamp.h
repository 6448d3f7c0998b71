// Build stamp carried by every result, and the rule that keeps numbers from
// unoptimised or sanitizer builds out of the record.
#pragma once

#include <string>

namespace perfbench {

struct BuildStamp {
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string flags;       // compile flags the benchmark was built with
  std::string sanitizers;  // "none", or the sanitizers compiled in
};

/// The stamp of this binary.
BuildStamp this_build();

/// Why results from a build must not be reported ("" when they may): only
/// Release and RelWithDebInfo builds without sanitizers are accepted.
std::string refusal_reason(const BuildStamp& stamp);

}  // namespace perfbench
