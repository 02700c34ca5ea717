#ifndef FRONTIERS_HOM_QUERY_OPS_H_
#define FRONTIERS_HOM_QUERY_OPS_H_

#include <optional>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "hom/query_kernel.h"
#include "tgd/conjunctive_query.h"
#include "tgd/substitution.h"

namespace frontiers {

/// CQ evaluation and the query-order operations of Section 2.

/// True if `facts |= query(answer)`: some homomorphism maps the body into
/// `facts` sending the i-th answer variable to `answer[i]`.
bool Holds(const Vocabulary& vocab, const ConjunctiveQuery& query,
           const FactSet& facts, const std::vector<TermId>& answer);

/// True if the Boolean query holds (`answer` empty).
bool HoldsBoolean(const Vocabulary& vocab, const ConjunctiveQuery& query,
                  const FactSet& facts);

/// All distinct answer tuples of `query` over `facts`, sorted.
std::vector<std::vector<TermId>> EvaluateQuery(const Vocabulary& vocab,
                                               const ConjunctiveQuery& query,
                                               const FactSet& facts);

/// A homomorphism from `from` to `to` mapping the i-th answer variable of
/// `from` to the i-th answer variable of `to` (both queries must have the
/// same number of answer variables), or nullopt.
std::optional<Substitution> QueryHomomorphism(const Vocabulary& vocab,
                                              const ConjunctiveQuery& from,
                                              const ConjunctiveQuery& to);

/// The paper's containment order (Section 2): `phi` *contains* `psi` iff
/// every structure satisfying `psi` satisfies `phi`, iff there is a
/// homomorphism from `phi` to `psi` that is the identity on the answer
/// variables.
bool Contains(const Vocabulary& vocab, const ConjunctiveQuery& phi,
              const ConjunctiveQuery& psi);

/// `Contains` on compiled forms, for callers that check one query against
/// many: each query is compiled once.
bool Contains(const CompiledQuery& phi, const CompiledQuery& psi);

/// Mutual containment.
bool EquivalentQueries(const Vocabulary& vocab, const ConjunctiveQuery& a,
                       const ConjunctiveQuery& b);

/// The core (minimization) of a CQ: the unique (up to isomorphism) smallest
/// equivalent query, obtained by folding redundant atoms with
/// answer-variable-fixing endomorphisms.  Used by the rewriting engine to
/// keep rewriting sets in the minimal form Theorem 1 requires.
ConjunctiveQuery MinimizeQuery(const Vocabulary& vocab,
                               const ConjunctiveQuery& query);

/// A pairwise-incomparable set of CQs, the shape Theorem 1 requires of a
/// rewriting.  Each member is kept beside its compiled form, so a query is
/// compiled once however many containment checks it takes part in.
class IncomparableQuerySet {
 public:
  /// Starts from `members`, taken as already pairwise incomparable.
  explicit IncomparableQuerySet(const Vocabulary& vocab,
                                std::vector<ConjunctiveQuery> members = {});

  /// Inserts `query` unless a member contains it, and removes the members
  /// it contains.  Returns true if the query was inserted.
  bool Insert(ConjunctiveQuery query);

  /// The members: survivors in insertion order.
  std::vector<ConjunctiveQuery> TakeQueries() && { return std::move(queries_); }

 private:
  const Vocabulary& vocab_;
  std::vector<ConjunctiveQuery> queries_;
  std::vector<CompiledQuery> compiled_;  // parallel to queries_
};

}  // namespace frontiers

#endif  // FRONTIERS_HOM_QUERY_OPS_H_
