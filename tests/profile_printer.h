// gtest printer for ue::StackProfile, the parameter of the per-profile
// suites. Without it gtest prints the parameter as a dump of its raw bytes,
// heap pointers included, and that dump ends up in the test names ctest
// discovers — so those names changed from one build to the next.
#pragma once

#include <ostream>

#include "ue/profile.h"

namespace procheck::ue {

inline void PrintTo(const StackProfile& profile, std::ostream* os) { *os << profile.name; }

}  // namespace procheck::ue
