#include "hom/query_ops.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "hom/matcher.h"
#include "hom/query_kernel.h"

namespace frontiers {

namespace {

std::unordered_set<TermId> MappableVars(const Vocabulary& vocab,
                                        const ConjunctiveQuery& query,
                                        bool include_answer_vars) {
  std::unordered_set<TermId> mappable;
  for (TermId v : QueryVariables(vocab, query)) mappable.insert(v);
  if (!include_answer_vars) {
    for (TermId v : query.answer_vars) mappable.erase(v);
  }
  return mappable;
}

}  // namespace

bool Holds(const Vocabulary& vocab, const ConjunctiveQuery& query,
           const FactSet& facts, const std::vector<TermId>& answer) {
  if (answer.size() != query.answer_vars.size()) return false;
  Substitution initial;
  for (size_t i = 0; i < answer.size(); ++i) {
    const TermId v = query.answer_vars[i];
    // Rewritten queries may carry constants in the answer tuple; they match
    // only themselves and take no binding.
    if (!vocab.IsVariable(v)) {
      if (v != answer[i]) return false;
      continue;
    }
    auto it = initial.find(v);
    if (it != initial.end() && it->second != answer[i]) return false;
    initial.emplace(v, answer[i]);
  }
  Matcher matcher(vocab, facts);
  return matcher.Exists(query.atoms, MappableVars(vocab, query, false),
                        initial);
}

bool HoldsBoolean(const Vocabulary& vocab, const ConjunctiveQuery& query,
                  const FactSet& facts) {
  return Holds(vocab, query, facts, {});
}

std::vector<std::vector<TermId>> EvaluateQuery(const Vocabulary& vocab,
                                               const ConjunctiveQuery& query,
                                               const FactSet& facts) {
  std::set<std::vector<TermId>> answers;
  Matcher matcher(vocab, facts);
  matcher.ForEach(query.atoms, MappableVars(vocab, query, true), {},
                  [&](const Substitution& sub) {
                    std::vector<TermId> tuple;
                    tuple.reserve(query.answer_vars.size());
                    for (TermId v : query.answer_vars) {
                      tuple.push_back(Apply(sub, v));
                    }
                    answers.insert(std::move(tuple));
                    return true;
                  });
  return {answers.begin(), answers.end()};
}

std::optional<Substitution> QueryHomomorphism(const Vocabulary& vocab,
                                              const ConjunctiveQuery& from,
                                              const ConjunctiveQuery& to) {
  QueryMatch match;
  if (!FindQueryHomomorphism(CompiledQuery(vocab, from),
                             CompiledQuery(vocab, to), CompiledQuery::kNone,
                             &match)) {
    return std::nullopt;
  }
  return Substitution(match.bindings.begin(), match.bindings.end());
}

bool Contains(const Vocabulary& vocab, const ConjunctiveQuery& phi,
              const ConjunctiveQuery& psi) {
  return Contains(CompiledQuery(vocab, phi), CompiledQuery(vocab, psi));
}

bool Contains(const CompiledQuery& phi, const CompiledQuery& psi) {
  return FindQueryHomomorphism(phi, psi, CompiledQuery::kNone, nullptr);
}

bool EquivalentQueries(const Vocabulary& vocab, const ConjunctiveQuery& a,
                       const ConjunctiveQuery& b) {
  const CompiledQuery ca(vocab, a);
  const CompiledQuery cb(vocab, b);
  return Contains(ca, cb) && Contains(cb, ca);
}

ConjunctiveQuery MinimizeQuery(const Vocabulary& vocab,
                               const ConjunctiveQuery& query) {
  ConjunctiveQuery current = query;
  // Remove literal duplicates first.
  {
    std::vector<Atom> unique;
    for (const Atom& atom : current.atoms) {
      if (std::find(unique.begin(), unique.end(), atom) == unique.end()) {
        unique.push_back(atom);
      }
    }
    current.atoms = std::move(unique);
  }

  QueryMatch fold;
  bool changed = true;
  while (changed && current.atoms.size() > 1) {
    changed = false;
    // `current` is duplicate-free, so its distinct atoms are its atoms.
    const CompiledQuery compiled(vocab, current);
    for (uint32_t drop = 0; drop < compiled.num_atoms(); ++drop) {
      // Target: the query without atom `drop`, an answer-variable-fixing
      // endomorphism into the rest.
      if (!FindQueryHomomorphism(compiled, compiled, drop, &fold)) continue;
      // Replace the query by its homomorphic image (a subset of the target,
      // hence strictly smaller than `current`), in pattern atom order.
      std::vector<uint8_t> taken(current.atoms.size(), 0);
      std::vector<Atom> image;
      for (uint32_t target : fold.atom_image) {
        if (taken[target]) continue;
        taken[target] = 1;
        image.push_back(current.atoms[target]);
      }
      current.atoms = std::move(image);
      changed = true;
      break;
    }
  }
  return current;
}

IncomparableQuerySet::IncomparableQuerySet(
    const Vocabulary& vocab, std::vector<ConjunctiveQuery> members)
    : vocab_(vocab), queries_(std::move(members)) {
  compiled_.reserve(queries_.size());
  for (const ConjunctiveQuery& q : queries_) compiled_.emplace_back(vocab_, q);
}

bool IncomparableQuerySet::Insert(ConjunctiveQuery query) {
  CompiledQuery compiled(vocab_, query);
  for (const CompiledQuery& existing : compiled_) {
    if (Contains(existing, compiled)) return false;
  }
  size_t kept = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (Contains(compiled, compiled_[i])) continue;
    if (kept != i) {
      queries_[kept] = std::move(queries_[i]);
      compiled_[kept] = std::move(compiled_[i]);
    }
    ++kept;
  }
  queries_.erase(queries_.begin() + kept, queries_.end());
  compiled_.erase(compiled_.begin() + kept, compiled_.end());
  queries_.push_back(std::move(query));
  compiled_.push_back(std::move(compiled));
  return true;
}

}  // namespace frontiers
