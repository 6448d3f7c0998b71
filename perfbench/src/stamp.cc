#include "stamp.h"

namespace perfbench {

BuildStamp this_build() {
  BuildStamp s;
#ifdef PERFBENCH_BUILD_TYPE
  s.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifdef PERFBENCH_CXX_FLAGS
  s.flags = PERFBENCH_CXX_FLAGS;
#endif
  std::string found;
#if defined(__SANITIZE_ADDRESS__)
  found += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  found += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  found += "address ";
#endif
#if __has_feature(thread_sanitizer)
  found += "thread ";
#endif
#endif
  // UBSan defines no macro; the flags are the only trace it leaves.
  if (s.flags.find("-fsanitize=") != std::string::npos) found += "flags ";
  s.sanitizers = found.empty() ? "none" : found.substr(0, found.size() - 1);
  return s;
}

std::string refusal_reason(const BuildStamp& stamp) {
  if (stamp.build_type != "Release" && stamp.build_type != "RelWithDebInfo") {
    return "build type '" + stamp.build_type + "' is not an optimised build";
  }
  if (stamp.sanitizers != "none") return "sanitizer build (" + stamp.sanitizers + ")";
  return "";
}

}  // namespace perfbench
