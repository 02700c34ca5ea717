#ifndef FRONTIERS_HOM_MATCHER_H_
#define FRONTIERS_HOM_MATCHER_H_

#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "tgd/substitution.h"

namespace frontiers {

/// Backtracking pattern matcher: finds assignments of the *mappable* terms
/// of an atom pattern such that every pattern atom lands inside a target
/// fact set.
///
/// The engine serves the instance-scale homomorphism questions of the
/// paper:
///   * CQ evaluation over instances and chase prefixes (`Hom(rho, F)` of
///     Definition 5, query satisfaction of Section 2),
///   * structure-to-structure homomorphisms and cores (Definitions 19/24),
/// differing only in *which terms are mappable*: query variables, all
/// non-fixed domain elements, etc.  Terms outside `mappable` are rigid and
/// must match themselves.  Query-to-query homomorphisms (containment and
/// minimization, Observation 2's footnote) go to the small-query kernel of
/// hom/query_kernel.h instead, which keeps this class's search order.
///
/// The search picks, at every step, the pattern atom with the fewest
/// candidate target atoms (using the per-(predicate,position,term) index
/// for selectivity), which is the classic fail-first heuristic.
///
/// A Matcher holds no mutable state (each enumeration builds its own search
/// state), so one instance may be shared by concurrent readers as long as
/// nobody mutates the underlying fact set or vocabulary meanwhile — the
/// contract the chase's parallel match phase relies on.
class Matcher {
 public:
  /// Creates a matcher over `target`.  Both references must outlive the
  /// matcher.
  Matcher(const Vocabulary& vocab, const FactSet& target)
      : vocab_(vocab), target_(target) {}

  /// Enumerates all total assignments extending `initial`.  The callback
  /// receives each complete substitution; returning `false` stops the
  /// enumeration.  Returns true if the enumeration ran to completion.
  ///
  /// Every term of `pattern` that is in `mappable` and not already bound by
  /// `initial` is assigned; all other terms are rigid.
  bool ForEach(const std::vector<Atom>& pattern,
               const std::unordered_set<TermId>& mappable,
               const Substitution& initial,
               const std::function<bool(const Substitution&)>& callback) const;

  /// First match or nullopt.
  std::optional<Substitution> Find(
      const std::vector<Atom>& pattern,
      const std::unordered_set<TermId>& mappable,
      const Substitution& initial = {}) const;

  /// True if some match exists.
  bool Exists(const std::vector<Atom>& pattern,
              const std::unordered_set<TermId>& mappable,
              const Substitution& initial = {}) const {
    return Find(pattern, mappable, initial).has_value();
  }

 private:
  const Vocabulary& vocab_;
  const FactSet& target_;
};

/// Attempts to extend `sub` so that `pattern` (whose `mappable` terms may be
/// bound) becomes row `row` of `segment`, which must hold the atoms of
/// `pattern.predicate`.  On success `*bound` lists the terms this call
/// bound, so the caller can undo them later.  On failure returns false and
/// rolls back every binding it added, leaving `sub` exactly as passed in —
/// callers (the matcher's candidate loop, the chase's semi-naive seeding)
/// reuse one substitution across attempts.
bool UnifyAtomWithRow(const Atom& pattern, const ColumnarSegment& segment,
                      uint32_t row, const std::unordered_set<TermId>& mappable,
                      Substitution& sub, std::vector<TermId>* bound);

}  // namespace frontiers

#endif  // FRONTIERS_HOM_MATCHER_H_
