// Reference oracle for the heuristic minimizer (test-only; no production
// binary links it).
//
// The minterm-scan EXPAND, the rescan-based IRREDUNDANT and the
// sort-then-search initial cover that logic/espresso.cpp replaced with
// bit-plane, incremental and merge-built versions.  They decide every
// step one code at a time, so they are slow but easy to audit; espresso()
// must return byte-identical covers.  REDUCE is shared with production.
//
// verify_cover is the minterm-at-a-time cover check that
// logic/verify.cpp replaced with a bit-sliced sweep; logic::verify_cover
// must return the same verdict and first-violation message.
//
// generate_primes enumerates every input cube instead of expanding from
// the on-minterms; logic::generate_primes must return the same primes in
// the same order.
#pragma once

#include <vector>

#include "logic/cover.hpp"
#include "logic/espresso.hpp"
#include "logic/spec.hpp"
#include "logic/verify.hpp"

namespace nshot::logic::reference {

/// True if the input part of `cube` hits no off-minterm of any output the
/// cube feeds — i.e. the cube is an implicant of F ∪ D for those outputs.
bool cube_is_valid(const TwoLevelSpec& spec, const Cube& cube);

/// The initial cover: with sharing, the on-codes of all outputs are
/// concatenated, sorted and deduplicated, and each code's outputs are
/// found by binary search in every on-list.
Cover initial_cover(const TwoLevelSpec& spec, bool share_outputs);

/// EXPAND: every candidate raise is checked by scanning the off-lists.
void expand(Cover& cover, const TwoLevelSpec& spec, bool share_outputs);

/// IRREDUNDANT: the greedy set cover rescans every pair's coverers per pick.
void irredundant(Cover& cover, const TwoLevelSpec& spec);

/// The full EXPAND/IRREDUNDANT/REDUCE loop over the reference steps.
Cover espresso(const TwoLevelSpec& spec, const EspressoOptions& options = {});

/// Every on-minterm covered, no off-minterm covered, checked one code at a
/// time in list order; same result as logic::verify_cover.
VerifyResult verify_cover(const TwoLevelSpec& spec, const Cover& cover);

/// The prime implicants of output `o` by exhaustion over all 3^n input
/// cubes: valid (cube_is_valid), covering an on-minterm, and invalid under
/// every single raise.  Sorted by (lo, hi), as logic::generate_primes
/// emits them.  Small input counts only.
std::vector<Cube> generate_primes(const TwoLevelSpec& spec, int o);

}  // namespace nshot::logic::reference
