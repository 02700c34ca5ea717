#ifndef FRONTIERS_TGD_CONJUNCTIVE_QUERY_H_
#define FRONTIERS_TGD_CONJUNCTIVE_QUERY_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "base/atom.h"
#include "base/fact_set.h"
#include "base/vocabulary.h"

namespace frontiers {

/// A conjunctive query `psi(y) = exists x . beta(x, y)` (Section 2).
///
/// `atoms` is the body `beta`; `answer_vars` is the tuple of free variables
/// `y` (empty for a Boolean CQ).  Every variable occurring in the body and
/// not listed in `answer_vars` is implicitly existentially quantified.
/// Constants may occur in the body.  The *size* of a CQ is its number of
/// atoms, exactly as in the paper.
struct ConjunctiveQuery {
  std::vector<Atom> atoms;
  std::vector<TermId> answer_vars;

  /// Number of atoms (the paper's `|psi(y)|`).
  size_t size() const { return atoms.size(); }

  /// True if the query has no free variables.
  bool IsBoolean() const { return answer_vars.empty(); }
};

/// All variables of the query in first-occurrence order (answer variables
/// first, body order after).
std::vector<TermId> QueryVariables(const Vocabulary& vocab,
                                   const ConjunctiveQuery& query);

/// The existentially quantified variables (all variables minus answer vars).
std::vector<TermId> ExistentialVariables(const Vocabulary& vocab,
                                         const ConjunctiveQuery& query);

/// True if the query's Gaifman graph (vertices = variables *and* constants,
/// edges = co-occurrence in an atom) is connected.  Queries with no atoms
/// count as connected.
bool IsConnected(const Vocabulary& vocab, const ConjunctiveQuery& query);

/// Renders `q(y1,..) :- A(..), B(..)` (or just the body for Boolean CQs).
std::string QueryToString(const Vocabulary& vocab,
                          const ConjunctiveQuery& query);

}  // namespace frontiers

#endif  // FRONTIERS_TGD_CONJUNCTIVE_QUERY_H_
