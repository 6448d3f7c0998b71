// Diff-report JSON encoder (DESIGN.md §16): the machine-readable `prochecker
// diff --json` output, written for outside tools. Encoding covers exactly
// the deterministic slice of a DiffReport — there are no timing fields — so
// encode_report(report) is byte-identical across runs and jobs levels, and
// the document is strict JSON (common/json.h's parser reads it back in the
// tests and the fuzz smoke).
#pragma once

#include <string>

#include "diff/diff.h"

namespace procheck::diff {

std::string encode_report(const DiffReport& report);

}  // namespace procheck::diff
