// Fixture for the path-ref rule: a comment that names a repo path must
// name one that exists.
#include <cstdint>

// Replays update streams through src/dynamic/.  // dcl-lint-expect: path-ref
int replayed = 0;

/* Streams from src/graph/update_streams.h  dcl-lint-expect: path-ref
   fed the deletion path. */
int streams = 0;

// Capture settings are in PERF_NOTES.md.  // dcl-lint-expect: path-ref
int settings = 0;

// Silent: each of these resolves. README.md sits beside this file,
// ANALYSIS.md under docs/, and perfbench/METRICS.md, docs/ROBUSTNESS.md
// and tools/dcl_lint.py at the root. An include path such as
// core/kp_lister.h is not a repo path mention.
// Globs and brace patterns name no single path: tests/test_*.cpp,
// src/graph/workloads.{h,cpp}.
const char* kDoc = "docs/GONE.md in a string literal";
std::uint64_t resolved = 0;
