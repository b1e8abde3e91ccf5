// Problem canonicalization — the schedule cache's notion of identity.
//
// Two `.paws` files that differ only in declaration order, whitespace or
// comments describe the same scheduling problem and must map to the same
// cache key. Whitespace and comments never survive parsing, so the work
// left here is ordering: the canonical form renders the parsed `Problem`
// (dense-id SoA) with
//   * resources sorted by name;
//   * tasks sorted by name (names are unique within a problem, so this is
//     a total order that no declaration order can change);
//   * constraints sorted by (kind, from-name, to-name, separation).
// Every semantic field — problem name, limits, per-task delay/power/
// resource/criticality, constraint bounds — is rendered in exact integer
// (milliwatt / tick) form, so any semantic edit changes the text and
// therefore the FNV-1a-64 hash. The problem name participates too, so two
// differently named problems never share an entry. The header line carries a
// format version ("paws-canonical 2"), so a rendering change moves every
// key instead of aliasing an old one.
//
// The *structural* hash is the same rendering with the power limits
// (pmax/pmin/background) and each task's delay/power removed: problems
// equal under it have the same task/resource/constraint skeleton and
// differ only by a "small delta" (changed limits, one task's cost edit) —
// the near-miss revalidation candidates (see cached_solve.cpp). It renders
// tasks in the same name order, so equal structural text means equal task
// order: index i names the same task on both sides of a near miss.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/problem.hpp"

namespace paws::cache {

struct CanonicalForm {
  /// Declaration-order-invariant rendering (see file header).
  std::string text;
  /// fnv1a64(text) — the cache key's problem half.
  std::uint64_t hash = 0;
  /// Limits/delay/power-blind variant for near-miss candidate lookup.
  /// 0 when the form was computed with CanonicalParts::kKeyOnly.
  std::uint64_t structuralHash = 0;
  /// The problem's task ids in name order, the order `text` renders them
  /// (computed in both parts). Index i names the same task in every
  /// problem with an equal `hash` or `structuralHash`, whatever its
  /// declaration order — the cache stores and binds start times by it.
  std::vector<TaskId> taskOrder;
};

/// How much of the canonical form to compute. The exact-hit path only
/// needs `text`/`hash`; rendering and hashing the structural skeleton too
/// would roughly double the per-probe cost for a value the hit never
/// reads. The miss path (near-miss lookup, insertion) recomputes the full
/// form — that cost disappears next to any actual solve.
enum class CanonicalParts {
  kKeyOnly,  ///< text + hash only; structuralHash left 0
  kFull,     ///< everything
};

[[nodiscard]] CanonicalForm canonicalize(
    const Problem& problem, CanonicalParts parts = CanonicalParts::kFull);

/// The cache key's second half: everything besides the problem that
/// changes the answer. `scheduler` is the pawsc dispatch name (pipeline /
/// serial / list / optimal); `trials` only matters for the pipeline and is
/// normalized to 0 for the others. Deliberately excluded: jobs (results
/// are byte-identical for any worker count) and budgets (budget-tripped
/// results are never inserted).
[[nodiscard]] std::uint64_t optionsFingerprint(std::string_view scheduler,
                                               std::uint32_t trials);

}  // namespace paws::cache
