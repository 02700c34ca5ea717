#include "hom/matcher.h"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

bool UnifyAtomWithRow(const Atom& pattern, const ColumnarSegment& segment,
                      uint32_t row, const std::unordered_set<TermId>& mappable,
                      Substitution& sub, std::vector<TermId>* bound) {
  bound->clear();
  if (pattern.args.size() != segment.arity()) return false;
  for (uint32_t pos = 0; pos < segment.arity(); ++pos) {
    const TermId p = pattern.args[pos];
    const TermId f = segment.Term(row, pos);
    auto it = sub.find(p);
    if (it == sub.end() && mappable.count(p) > 0) {
      sub.emplace(p, f);
      bound->push_back(p);
    } else if ((it != sub.end() ? it->second : p) != f) {
      // Already bound, or rigid: either way its value must equal `f`.
      for (TermId t : *bound) sub.erase(t);
      bound->clear();
      return false;
    }
  }
  return true;
}

namespace {

// Recursive backtracking state.
struct SearchState {
  const Vocabulary& vocab;
  const FactSet& target;
  const std::vector<Atom>& pattern;
  const std::unordered_set<TermId>& mappable;
  Substitution sub;
  std::vector<bool> done;
  const std::function<bool(const Substitution&)>& callback;

  // Candidate atom ids of `target` for pattern atom `i`
  // under the current partial substitution: the hash-join probe against
  // the most selective bound position's posting list, falling back to the
  // per-predicate scan when no position is bound.
  //
  // Concurrency contract with the sharded store (DESIGN.md §5): posting
  // lists and segments are epoch-stable — FactSet only mutates them inside
  // a commit phase, and match workers only read them between commits.
  // Reads therefore take no locks here, at any thread or shard count.
  PostingList CandidatesFor(size_t i) const {
    const Atom& atom = pattern[i];
    PostingList best;
    bool constrained = false;
    size_t size = SIZE_MAX;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      TermId t = atom.args[pos];
      auto bound = sub.find(t);
      TermId value;
      if (bound != sub.end()) {
        value = bound->second;
      } else if (mappable.count(t) == 0) {
        value = t;  // rigid
      } else {
        continue;  // unbound mappable: no constraint at this position
      }
      PostingList list =
          target.ByPredicatePositionTerm(atom.predicate, pos, value);
      if (list.size() < size) {
        size = list.size();
        best = list;
        constrained = true;
      }
    }
    if (!constrained) {
      const std::vector<uint32_t>& list = target.ByPredicate(atom.predicate);
      best = PostingList(list.data(), list.size());
    }
    return best;
  }

  // Returns true to continue enumeration, false to stop early.
  bool Solve() {
    // Pick the unsolved atom with the fewest candidates (fail-first).
    size_t best_atom = SIZE_MAX;
    PostingList best_candidates;
    size_t best_size = SIZE_MAX;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (done[i]) continue;
      PostingList candidates = CandidatesFor(i);
      if (candidates.size() < best_size) {
        best_size = candidates.size();
        best_candidates = candidates;
        best_atom = i;
        if (best_size == 0) break;
      }
    }
    if (best_atom == SIZE_MAX) {
      return callback(sub);  // all atoms matched
    }
    if (best_size == 0) return true;  // dead end, backtrack
    done[best_atom] = true;
    const Atom& atom = pattern[best_atom];
    // Every candidate id comes from an access path of `atom.predicate`, so
    // candidate terms are read straight from that predicate's segment.
    const ColumnarSegment* seg = target.Segment(atom.predicate);
    // Terms each unification binds, undone after the recursive step;
    // hoisted out of the candidate loop to reuse its buffer.
    std::vector<TermId> bound_here;
    for (uint32_t idx : best_candidates) {
      if (!UnifyAtomWithRow(atom, *seg, target.LocalRow(idx), mappable, sub,
                            &bound_here)) {
        continue;
      }
      const bool go_on = Solve();
      for (TermId t : bound_here) sub.erase(t);
      if (!go_on) {
        done[best_atom] = false;
        return false;
      }
    }
    done[best_atom] = false;
    return true;
  }
};

}  // namespace

bool Matcher::ForEach(
    const std::vector<Atom>& pattern,
    const std::unordered_set<TermId>& mappable, const Substitution& initial,
    const std::function<bool(const Substitution&)>& callback) const {
  // A disabled span costs one relaxed load; the counter is one relaxed RMW
  // on a per-thread shard.  Per-*match* costs stay uninstrumented — the
  // chase already counts matches per round (ChaseRoundStats::matches).
  obs::Span span("hom.foreach", "hom");
  static obs::Counter& enumerations =
      obs::DefaultRegistry().GetCounter("frontiers.hom.enumerations");
  enumerations.Add();
  // Ensure unbound mappable terms that never occur in the pattern do not
  // block completion: only pattern terms are assigned; the callback sees
  // exactly the bindings for pattern terms plus `initial`.
  SearchState state{vocab_,  target_, pattern,
                    mappable, initial, std::vector<bool>(pattern.size(), false),
                    callback};
  return state.Solve();
}

std::optional<Substitution> Matcher::Find(
    const std::vector<Atom>& pattern,
    const std::unordered_set<TermId>& mappable,
    const Substitution& initial) const {
  std::optional<Substitution> found;
  ForEach(pattern, mappable, initial, [&found](const Substitution& sub) {
    found = sub;
    return false;
  });
  return found;
}

}  // namespace frontiers
