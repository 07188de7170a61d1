// Fixture for the roadmap-ref rule: a comment states its reason inline
// instead of pointing at a numbered plan item.
#include <cstdint>

// Sparse phases (ROADMAP lever f) are stamped.  // dcl-lint-expect: roadmap-ref
int stamped = 0;

/* The scale contract of ROADMAP item 5 makes  dcl-lint-expect: roadmap-ref
   edge offsets 64-bit. */
std::uint64_t offsets = 0;

// Row offsets reach 2^32 at ROADMAP-item-5 sizes.  // dcl-lint-expect: roadmap-ref
int rows = 0;

// Structural evidence only (ROADMAP "standing constraints").  // dcl-lint-expect: roadmap-ref
int shards = 0;

// ROADMAP.md item 2 lists the plan rewrite.  // dcl-lint-expect: roadmap-ref
int plan = 0;

// Silent: a plain pointer at the file, and the word in a string literal.
// The open items live in ROADMAP.md.
const char* kDoc = "ROADMAP item 1";
