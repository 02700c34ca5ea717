#ifndef FRONTIERS_HOM_QUERY_KERNEL_H_
#define FRONTIERS_HOM_QUERY_KERNEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/vocabulary.h"
#include "tgd/conjunctive_query.h"

namespace frontiers {

/// The small-query homomorphism kernel: CQ-to-CQ homomorphisms (containment,
/// minimization) on flat arrays, without building a fact store.
///
/// A CQ is compiled once into a `CompiledQuery`; the same compiled form
/// serves as the pattern side and as the target side of a search.  The
/// search (`FindQueryHomomorphism`) reproduces the instance `Matcher`'s
/// order exactly: at every step it solves the unsolved pattern atom with the
/// fewest candidate target atoms (ties to the lowest index), and visits
/// candidates in target atom order.  The first homomorphism found is
/// therefore the one the Matcher over the query's canonical database would
/// find, which keeps the cores of `MinimizeQuery` byte-identical.
/// DESIGN.md §4 describes the two homomorphism engines.

/// A CQ compiled for the kernel.  Immutable after construction and holds no
/// references, so it can be kept beside its query for as long as needed.
class CompiledQuery {
 public:
  /// Marks an absent term, atom or bucket in the compiled arrays.
  static constexpr uint32_t kNone = UINT32_MAX;

  CompiledQuery(const Vocabulary& vocab, const ConjunctiveQuery& query);

  /// Number of distinct body atoms (literal duplicates collapse, as in the
  /// query's canonical database).
  uint32_t num_atoms() const {
    return static_cast<uint32_t>(atom_bucket_.size());
  }

 private:
  friend class QuerySearch;

  // One predicate of the body: its distinct atoms, in atom order, are
  // bucket_atoms_[begin, begin + count); its argument positions own the
  // slots [slot_base, slot_base + arity).
  struct Bucket {
    PredicateId predicate;
    uint32_t arity;
    uint32_t slot_base;
    uint32_t begin;
    uint32_t count;
  };
  // The atoms holding one term at one slot: posting_atoms_[begin, begin +
  // count), in atom order.
  struct Posting {
    uint32_t slot;
    uint32_t begin;
    uint32_t count;
  };

  // Dense id of the rigid term `t`, or kNone.
  uint32_t RigidDenseOf(TermId t) const;

  // The body's distinct terms in first-occurrence order: dense id ->
  // TermId.
  std::vector<TermId> terms_;
  // Per dense term: 1 if the search may bind it (an existential variable).
  std::vector<uint8_t> mappable_;
  // The rigid terms (constants and other non-variables), which map only to
  // themselves: (TermId, dense id), sorted.
  std::vector<std::pair<TermId, uint32_t>> rigid_;
  // Distinct atoms: bucket, and dense arguments args_[args_begin_[a] ...].
  std::vector<uint32_t> atom_bucket_;
  std::vector<uint32_t> args_begin_;
  std::vector<uint32_t> args_;
  // Buckets sorted by predicate.
  std::vector<Bucket> buckets_;
  std::vector<uint32_t> bucket_atoms_;
  // Count index: per dense term t, postings_[term_begin_[t],
  // term_begin_[t + 1]) sorted by slot.
  std::vector<uint32_t> term_begin_;
  std::vector<Posting> postings_;
  std::vector<uint32_t> posting_atoms_;
  // The answer tuple, whether each entry is a variable, and its dense id
  // (kNone when it does not occur in the body).
  std::vector<TermId> answer_;
  std::vector<uint8_t> answer_is_var_;
  std::vector<uint32_t> answer_dense_;
};

/// A homomorphism found by the kernel.
struct QueryMatch {
  /// Per distinct pattern atom: the distinct target atom it maps to.
  std::vector<uint32_t> atom_image;
  /// (variable, image) for each answer and existential variable of the
  /// pattern: the entries of the `Substitution` the Matcher returned.
  std::vector<std::pair<TermId, TermId>> bindings;
};

/// Searches for a homomorphism from `pattern` into `target` that sends the
/// i-th answer term of `pattern` to the i-th answer term of `target` and
/// fixes rigid terms, with target atom `skip_atom` (a distinct-atom index,
/// or `CompiledQuery::kNone`) left out of the target.  Returns true and
/// fills `match` (if non-null) with the first homomorphism found.
///
/// Answer tuples of different length, an answer constant sent elsewhere or
/// a repeated answer variable sent to two terms fail before any search.
/// Every other call is one search: it counts once in
/// `frontiers.hom.enumerations`, including searches the prefilter (a
/// pattern predicate absent from the target, or a rigid position with no
/// match) rejects.
bool FindQueryHomomorphism(const CompiledQuery& pattern,
                           const CompiledQuery& target, uint32_t skip_atom,
                           QueryMatch* match);

}  // namespace frontiers

#endif  // FRONTIERS_HOM_QUERY_KERNEL_H_
