#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "hom/matcher.h"
#include "hom/query_kernel.h"
#include "hom/query_ops.h"
#include "hom/structure_ops.h"
#include "obs/metrics.h"
#include "testing/generator.h"
#include "testing/rng.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class HomTest : public ::testing::Test {
 protected:
  FactSet Facts(const std::string& text) {
    Result<FactSet> facts = ParseFacts(vocab_, text);
    EXPECT_TRUE(facts.ok()) << facts.status().message();
    return facts.value();
  }
  ConjunctiveQuery Query(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }
  Theory ParseT(const std::string& text) {
    Result<Theory> t = ParseTheory(vocab_, text);
    EXPECT_TRUE(t.ok()) << t.status().message();
    return t.value();
  }
  TermId C(const std::string& name) { return vocab_.Constant(name); }
  Vocabulary vocab_;
};

// --------------------------------------------------------------- Matcher --

// Unifies `pattern` with `fact` as the matcher and the chase do: against
// the fact's row in a fact store's columnar segment.
bool UnifyWithStoredFact(const Atom& pattern, const Atom& fact,
                         const std::unordered_set<TermId>& mappable,
                         Substitution& sub) {
  FactSet store;
  store.Insert(fact);
  std::vector<TermId> bound;
  return UnifyAtomWithRow(pattern, store.SegmentOf(0), store.LocalRow(0),
                          mappable, sub, &bound);
}

TEST_F(HomTest, UnifyAtomWithRowRollsBackPartialBindingsOnFailure) {
  // Regression: a mid-atom mismatch used to leave the bindings made before
  // the mismatch in `sub`, so reusing one substitution across a failing
  // then a succeeding unification poisoned the second attempt.
  PredicateId e = vocab_.AddPredicate("E", 2);
  TermId x = vocab_.Variable("x");
  TermId y = vocab_.Variable("y");
  std::unordered_set<TermId> mappable = {x, y};
  // Pattern E(x, x): unifying with E(A, B) binds x=A, then fails on B.
  Atom pattern(e, {x, x});
  Substitution sub;
  EXPECT_FALSE(UnifyWithStoredFact(pattern, Atom(e, {C("A"), C("B")}),
                                   mappable, sub));
  EXPECT_TRUE(sub.empty()) << "failed unification must not leave bindings";
  // The same substitution must now accept E(B, B) with x=B.
  EXPECT_TRUE(UnifyWithStoredFact(pattern, Atom(e, {C("B"), C("B")}),
                                  mappable, sub));
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.at(x), C("B"));
}

TEST_F(HomTest, UnifyAtomWithRowKeepsPreexistingBindingsOnFailure) {
  PredicateId e = vocab_.AddPredicate("E", 2);
  TermId x = vocab_.Variable("x");
  TermId y = vocab_.Variable("y");
  std::unordered_set<TermId> mappable = {x, y};
  Substitution sub = {{x, C("A")}};
  // E(y, x) against E(B, D): binds y=B, then x=A != D fails; the rollback
  // must remove y's binding but keep the caller's x binding.
  EXPECT_FALSE(UnifyWithStoredFact(Atom(e, {y, x}), Atom(e, {C("B"), C("D")}),
                                   mappable, sub));
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.at(x), C("A"));
}

TEST_F(HomTest, BooleanQueryOverPath) {
  FactSet path = Facts("E(A,B), E(B,D)");
  EXPECT_TRUE(HoldsBoolean(vocab_, Query("E(x,y), E(y,z)"), path));
  EXPECT_FALSE(HoldsBoolean(vocab_, Query("E(x,y), E(y,x)"), path));
}

TEST_F(HomTest, RigidConstantsMustMatchThemselves) {
  FactSet path = Facts("E(A,B)");
  EXPECT_TRUE(HoldsBoolean(vocab_, Query("E(A,x)"), path));
  EXPECT_FALSE(HoldsBoolean(vocab_, Query("E(B,x)"), path));
}

TEST_F(HomTest, AnswerTupleEvaluation) {
  FactSet path = Facts("E(A,B), E(B,D)");
  ConjunctiveQuery q = Query("q(x,z) :- E(x,y), E(y,z)");
  EXPECT_TRUE(Holds(vocab_, q, path, {C("A"), C("D")}));
  EXPECT_FALSE(Holds(vocab_, q, path, {C("A"), C("B")}));
  auto answers = EvaluateQuery(vocab_, q, path);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], (std::vector<TermId>{C("A"), C("D")}));
}

TEST_F(HomTest, RepeatedAnswerVariable) {
  FactSet facts = Facts("E(A,A), E(A,B)");
  ConjunctiveQuery q = Query("q(x,x) :- E(x,x)");
  EXPECT_TRUE(Holds(vocab_, q, facts, {C("A"), C("A")}));
  EXPECT_FALSE(Holds(vocab_, q, facts, {C("A"), C("B")}));
}

TEST_F(HomTest, WrongArityAnswerIsRejected) {
  FactSet facts = Facts("E(A,B)");
  ConjunctiveQuery q = Query("q(x) :- E(x,y)");
  EXPECT_FALSE(Holds(vocab_, q, facts, {C("A"), C("B")}));
}

TEST_F(HomTest, UnifyAtomWithRowBindsAndChecks) {
  FactSet facts = Facts("E(A,B)");
  ConjunctiveQuery q = Query("E(x,x)");
  Substitution sub;
  std::unordered_set<TermId> mappable = {vocab_.Variable("x")};
  std::vector<TermId> bound;
  EXPECT_FALSE(UnifyAtomWithRow(q.atoms[0], facts.SegmentOf(0),
                                facts.LocalRow(0), mappable, sub, &bound));
  FactSet loop = Facts("E(D,D)");
  Substitution sub2;
  EXPECT_TRUE(UnifyAtomWithRow(q.atoms[0], loop.SegmentOf(0),
                               loop.LocalRow(0), mappable, sub2, &bound));
  EXPECT_EQ(bound, std::vector<TermId>{vocab_.Variable("x")});
  EXPECT_EQ(Apply(sub2, vocab_.Variable("x")), C("D"));
}

TEST_F(HomTest, EnumerationVisitsAllMatches) {
  FactSet facts = Facts("E(A,B), E(A,D), E(B,D)");
  ConjunctiveQuery q = Query("q(x,y) :- E(x,y)");
  auto answers = EvaluateQuery(vocab_, q, facts);
  EXPECT_EQ(answers.size(), 3u);
}

// ----------------------------------------------------------- Containment --

TEST_F(HomTest, ContainmentViaHomomorphism) {
  // phi = E(x,y) contains psi = E(x,y),E(y,z): every structure satisfying
  // psi satisfies phi.
  ConjunctiveQuery phi = Query("q(x) :- E(x,y)");
  ConjunctiveQuery psi = Query("q(x) :- E(x,y), E(y,z)");
  EXPECT_TRUE(Contains(vocab_, phi, psi));
  EXPECT_FALSE(Contains(vocab_, psi, phi));
}

TEST_F(HomTest, ContainmentFixesAnswerVariables) {
  ConjunctiveQuery phi = Query("q(x) :- E(x,y)");
  ConjunctiveQuery psi = Query("q(x) :- E(y,x)");
  EXPECT_FALSE(Contains(vocab_, phi, psi));
  EXPECT_FALSE(Contains(vocab_, psi, phi));
}

TEST_F(HomTest, EquivalenceOfRenamedQueries) {
  ConjunctiveQuery a = Query("q(x) :- E(x,y), E(y,z)");
  ConjunctiveQuery b = Query("q(u) :- E(u,v), E(v,w)");
  EXPECT_TRUE(EquivalentQueries(vocab_, a, b));
}

// ----------------------------------------------------------- Minimization --

TEST_F(HomTest, MinimizeFoldsRedundantAtoms) {
  // E(x,y), E(x,z) folds to E(x,y) (z maps to y).
  ConjunctiveQuery q = Query("q(x) :- E(x,y), E(x,z)");
  ConjunctiveQuery m = MinimizeQuery(vocab_, q);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(EquivalentQueries(vocab_, q, m));
}

TEST_F(HomTest, MinimizeKeepsCoreIntact) {
  ConjunctiveQuery q = Query("q(x) :- E(x,y), E(y,z)");
  ConjunctiveQuery m = MinimizeQuery(vocab_, q);
  EXPECT_EQ(m.size(), 2u);
}

TEST_F(HomTest, MinimizeRespectsAnswerVariables) {
  // With both endpoints free, the path of length 2 via distinct middles
  // cannot fold the two atoms into one.
  ConjunctiveQuery q = Query("q(x,z) :- E(x,y), E(y,z), E(x,w), E(w,z)");
  ConjunctiveQuery m = MinimizeQuery(vocab_, q);
  EXPECT_EQ(m.size(), 2u) << "w folds onto y but the path remains";
}

TEST_F(HomTest, MinimizeDropsLiteralDuplicates) {
  ConjunctiveQuery q = Query("E(x,y), E(x,y)");
  EXPECT_EQ(MinimizeQuery(vocab_, q).size(), 1u);
}

TEST_F(HomTest, MinimizeTriangleVersusSquare) {
  // The 4-cycle with free vertices folds onto an edge path when answer
  // variables permit; the directed triangle is its own core.
  ConjunctiveQuery triangle = Query("E(x,y), E(y,z), E(z,x)");
  EXPECT_EQ(MinimizeQuery(vocab_, triangle).size(), 3u);
  ConjunctiveQuery two_loop = Query("E(x,y), E(y,x), E(u,v), E(v,u)");
  EXPECT_EQ(MinimizeQuery(vocab_, two_loop).size(), 2u);
}

// -------------------------------------- Kernel vs. the store-backed path --
//
// The route the small-query kernel replaced, kept here as the oracle: the
// target query viewed as a fact store (its canonical database) and searched
// by the instance Matcher, with the answer tuple as the initial binding.

std::unordered_set<TermId> ExistentialVars(const Vocabulary& vocab,
                                           const ConjunctiveQuery& query) {
  std::unordered_set<TermId> vars;
  for (TermId v : QueryVariables(vocab, query)) vars.insert(v);
  for (TermId v : query.answer_vars) vars.erase(v);
  return vars;
}

std::optional<Substitution> OracleHomomorphism(const Vocabulary& vocab,
                                               const ConjunctiveQuery& from,
                                               const ConjunctiveQuery& to) {
  if (from.answer_vars.size() != to.answer_vars.size()) return std::nullopt;
  Substitution initial;
  for (size_t i = 0; i < from.answer_vars.size(); ++i) {
    const TermId f = from.answer_vars[i];
    const TermId t = to.answer_vars[i];
    if (!vocab.IsVariable(f)) {
      if (f != t) return std::nullopt;
      continue;
    }
    auto it = initial.find(f);
    if (it != initial.end() && it->second != t) return std::nullopt;
    initial.emplace(f, t);
  }
  FactSet target;
  for (const Atom& atom : to.atoms) target.Insert(atom);
  return Matcher(vocab, target)
      .Find(from.atoms, ExistentialVars(vocab, from), initial);
}

ConjunctiveQuery OracleMinimize(const Vocabulary& vocab,
                                const ConjunctiveQuery& query) {
  ConjunctiveQuery current = query;
  std::vector<Atom> unique;
  for (const Atom& atom : current.atoms) {
    if (std::find(unique.begin(), unique.end(), atom) == unique.end()) {
      unique.push_back(atom);
    }
  }
  current.atoms = std::move(unique);
  Substitution identity;
  for (TermId v : current.answer_vars) {
    if (vocab.IsVariable(v)) identity.emplace(v, v);
  }
  bool changed = true;
  while (changed && current.atoms.size() > 1) {
    changed = false;
    for (size_t drop = 0; drop < current.atoms.size(); ++drop) {
      FactSet target;
      for (size_t i = 0; i < current.atoms.size(); ++i) {
        if (i != drop) target.Insert(current.atoms[i]);
      }
      std::optional<Substitution> fold = Matcher(vocab, target).Find(
          current.atoms, ExistentialVars(vocab, current), identity);
      if (!fold.has_value()) continue;
      std::vector<Atom> image;
      for (const Atom& atom : current.atoms) {
        Atom mapped = Apply(*fold, atom);
        if (std::find(image.begin(), image.end(), mapped) == image.end()) {
          image.push_back(std::move(mapped));
        }
      }
      current.atoms = std::move(image);
      changed = true;
      break;
    }
  }
  return current;
}

uint64_t Enumerations() {
  return obs::DefaultRegistry()
      .GetCounter("frontiers.hom.enumerations")
      .Value();
}

// Both directions between `a` and `b`: the kernel finds a homomorphism iff
// the oracle does, finds the same first one, and counts the same searches.
void ExpectKernelMatchesOracle(const Vocabulary& vocab,
                               const ConjunctiveQuery& a,
                               const ConjunctiveQuery& b) {
  for (int dir = 0; dir < 2; ++dir) {
    const ConjunctiveQuery& from = dir == 0 ? a : b;
    const ConjunctiveQuery& to = dir == 0 ? b : a;
    SCOPED_TRACE(QueryToString(vocab, from) + "  ->  " +
                 QueryToString(vocab, to));
    const uint64_t before = Enumerations();
    const std::optional<Substitution> kernel =
        QueryHomomorphism(vocab, from, to);
    const uint64_t mid = Enumerations();
    const std::optional<Substitution> oracle =
        OracleHomomorphism(vocab, from, to);
    const uint64_t after = Enumerations();
    ASSERT_EQ(kernel.has_value(), oracle.has_value());
    if (kernel.has_value()) {
      EXPECT_EQ(*kernel, *oracle);
    }
    EXPECT_EQ(Contains(vocab, from, to), oracle.has_value());
    EXPECT_EQ(mid - before, after - mid) << "search counts differ";
  }
}

void ExpectMinimizeMatchesOracle(const Vocabulary& vocab,
                                 const ConjunctiveQuery& query) {
  SCOPED_TRACE(QueryToString(vocab, query));
  const uint64_t before = Enumerations();
  const ConjunctiveQuery kernel = MinimizeQuery(vocab, query);
  const uint64_t mid = Enumerations();
  const ConjunctiveQuery oracle = OracleMinimize(vocab, query);
  const uint64_t after = Enumerations();
  EXPECT_EQ(kernel.atoms, oracle.atoms)
      << QueryToString(vocab, kernel) << "  vs  "
      << QueryToString(vocab, oracle);
  EXPECT_EQ(kernel.answer_vars, oracle.answer_vars);
  EXPECT_EQ(mid - before, after - mid) << "search counts differ";
}

// A random CQ: `num_atoms` atoms over `signature`, arguments drawn from
// `num_vars` variables and (one in `constant_odds`) two constants, with up
// to two answer terms taken from the body.
ConjunctiveQuery RandomQuery(Vocabulary& vocab,
                             const std::vector<PredicateId>& signature,
                             uint64_t seed, uint32_t num_atoms,
                             uint32_t num_vars, uint32_t constant_odds = 8) {
  testing::SplitMix64 rng(seed);
  ConjunctiveQuery query;
  std::vector<TermId> used;
  for (uint32_t a = 0; a < num_atoms; ++a) {
    const PredicateId p =
        signature[rng.Below(static_cast<uint32_t>(signature.size()))];
    std::vector<TermId> args;
    for (uint32_t i = 0; i < vocab.PredicateArity(p); ++i) {
      const TermId t =
          rng.Chance(1, constant_odds)
              ? vocab.Constant("K" + std::to_string(rng.Below(2)))
              : vocab.Variable("k" + std::to_string(rng.Below(num_vars)));
      args.push_back(t);
      used.push_back(t);
    }
    query.atoms.emplace_back(p, std::move(args));
  }
  const uint32_t answers = used.empty() ? 0 : rng.Below(3);
  for (uint32_t i = 0; i < answers; ++i) {
    query.answer_vars.push_back(
        used[rng.Below(static_cast<uint32_t>(used.size()))]);
  }
  return query;
}

// `query` with a random identification of its variables (answer tuple
// included) plus `extra` random atoms: `query` maps into it, so the pairs
// mix positive and negative containment.
ConjunctiveQuery Specialize(Vocabulary& vocab,
                            const std::vector<PredicateId>& signature,
                            const ConjunctiveQuery& query, uint64_t seed,
                            uint32_t extra, uint32_t num_vars) {
  testing::SplitMix64 rng(seed);
  Substitution merge;
  for (TermId v : QueryVariables(vocab, query)) {
    if (rng.Chance(1, 4)) {
      merge.emplace(v, vocab.Variable("k" + std::to_string(rng.Below(num_vars))));
    }
  }
  ConjunctiveQuery out;
  out.atoms = Apply(merge, query.atoms);
  for (TermId v : query.answer_vars) out.answer_vars.push_back(Apply(merge, v));
  ConjunctiveQuery noise =
      RandomQuery(vocab, signature, rng.Next(), extra, num_vars);
  out.atoms.insert(out.atoms.end(), noise.atoms.begin(), noise.atoms.end());
  // Shuffle so the merged copy does not always come first.
  for (size_t i = out.atoms.size(); i > 1; --i) {
    std::swap(out.atoms[i - 1],
              out.atoms[rng.Below(static_cast<uint32_t>(i))]);
  }
  return out;
}

class KernelTest : public HomTest {
 protected:
  void SetUp() override {
    signature_ = {vocab_.AddPredicate("Z", 0), vocab_.AddPredicate("U", 1),
                  vocab_.AddPredicate("E", 2), vocab_.AddPredicate("T", 3)};
  }
  std::vector<PredicateId> signature_;
};

TEST_F(KernelTest, AgreesWithStorePathOnGeneratedQueries) {
  // GenerateQuery's CQs share one variable pool (y0..y4), so containment
  // between them often holds; unions of three give larger patterns.
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ConjunctiveQuery a =
        testing::GenerateQuery(vocab_, signature_, seed);
    const ConjunctiveQuery b =
        testing::GenerateQuery(vocab_, signature_, seed + 1000);
    ExpectKernelMatchesOracle(vocab_, a, b);
    ConjunctiveQuery u = a;
    for (uint64_t k = 1; k <= 2; ++k) {
      const ConjunctiveQuery part =
          testing::GenerateQuery(vocab_, signature_, seed * 7 + k);
      u.atoms.insert(u.atoms.end(), part.atoms.begin(), part.atoms.end());
    }
    ExpectKernelMatchesOracle(vocab_, a, u);
    ExpectKernelMatchesOracle(vocab_, b, u);
    ExpectMinimizeMatchesOracle(vocab_, u);
  }
}

TEST_F(KernelTest, AgreesWithStorePathOnRandomQueries) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const uint32_t atoms = 2 + static_cast<uint32_t>(seed % 9);
    const ConjunctiveQuery q =
        RandomQuery(vocab_, signature_, seed, atoms, 5);
    const ConjunctiveQuery s =
        Specialize(vocab_, signature_, q, seed * 31, 2, 5);
    const ConjunctiveQuery other =
        RandomQuery(vocab_, signature_, seed + 5000, atoms, 5);
    ExpectKernelMatchesOracle(vocab_, q, s);
    ExpectKernelMatchesOracle(vocab_, q, other);
    ExpectMinimizeMatchesOracle(vocab_, q);
    ExpectMinimizeMatchesOracle(vocab_, s);
  }
}

TEST_F(KernelTest, AgreesWithStorePathOn64AtomQueries) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ConjunctiveQuery q =
        RandomQuery(vocab_, signature_, seed * 977, 64, 40, 16);
    ASSERT_EQ(q.size(), 64u);
    const ConjunctiveQuery s =
        Specialize(vocab_, signature_, q, seed * 131, 8, 40);
    ExpectKernelMatchesOracle(vocab_, q, s);
    ExpectMinimizeMatchesOracle(vocab_, q);
  }
  // A 64-atom path with free endpoints is its own core; with a free start
  // only it folds to one atom.
  ConjunctiveQuery path;
  const PredicateId e = vocab_.FindPredicate("E").value();
  for (uint32_t i = 0; i < 64; ++i) {
    path.atoms.emplace_back(
        e, std::vector<TermId>{vocab_.Variable("p" + std::to_string(i)),
                               vocab_.Variable("p" + std::to_string(i + 1))});
  }
  path.answer_vars = {vocab_.Variable("p0"), vocab_.Variable("p64")};
  ExpectMinimizeMatchesOracle(vocab_, path);
  EXPECT_EQ(MinimizeQuery(vocab_, path).size(), 64u);
  ConjunctiveQuery loose = path;
  loose.answer_vars = {vocab_.Variable("p0")};
  ExpectMinimizeMatchesOracle(vocab_, loose);
  EXPECT_EQ(MinimizeQuery(vocab_, loose).size(), 64u)
      << "a directed path has no proper endomorphism fixing its start";
}

TEST_F(KernelTest, DroppedAtomLeavesTheCounts) {
  // Minimization searches the query with one atom left out.  The counts
  // that order the search must leave it out too: here counting it changes
  // which of the two equally small cores the first fold lands on.
  for (const char* text :
       {"U(a), E(a,b), E(a,c), E(a,d), E(d,e), E(c,e)",
        "Z(), U(k3), E(k3,k4), E(k3,k0), E(k3,k2), Z(), Z(), E(k2,k1), "
        "E(k0,k1)"}) {
    ExpectMinimizeMatchesOracle(vocab_, Query(text));
  }
}

TEST_F(KernelTest, AnswerTupleConstants) {
  // q(x, A) :- E(x, A), and the same shape with the constant in the body
  // only: an answer constant maps only to itself.
  const PredicateId e = vocab_.FindPredicate("E").value();
  const TermId x = vocab_.Variable("x"), y = vocab_.Variable("y");
  const TermId a = C("A"), b = C("B");
  ConjunctiveQuery with_a{{Atom(e, {x, a})}, {x, a}};
  ConjunctiveQuery with_b{{Atom(e, {x, b})}, {x, b}};
  ConjunctiveQuery var_end{{Atom(e, {x, y})}, {x, y}};
  ConjunctiveQuery longer{{Atom(e, {x, a}), Atom(e, {a, y})}, {x, a}};
  ExpectKernelMatchesOracle(vocab_, with_a, with_b);
  ExpectKernelMatchesOracle(vocab_, with_a, var_end);
  ExpectKernelMatchesOracle(vocab_, with_a, longer);
  EXPECT_TRUE(Contains(vocab_, with_a, longer));
  EXPECT_FALSE(Contains(vocab_, with_a, with_b));
  EXPECT_TRUE(Contains(vocab_, var_end, with_a)) << "y may map to A";
  ExpectMinimizeMatchesOracle(vocab_, longer);
}

TEST_F(KernelTest, RepeatedAnswerVariableOntoDistinctAnswersFails) {
  // q(x, x) cannot map onto q(u, v): x would need two images.  The answer
  // tuples alone decide it, so neither path runs a search.
  const ConjunctiveQuery diag = Query("q(x,x) :- E(x,x)");
  const ConjunctiveQuery full =
      Query("q(u,v) :- E(u,v), E(v,u), E(u,u), E(v,v)");
  const uint64_t before = Enumerations();
  EXPECT_FALSE(QueryHomomorphism(vocab_, diag, full).has_value());
  EXPECT_EQ(Enumerations(), before);
  ExpectKernelMatchesOracle(vocab_, diag, full);
  EXPECT_TRUE(Contains(vocab_, full, Query("q(u,u) :- E(u,u)")));
}

TEST_F(KernelTest, ZeroAryAtoms) {
  const PredicateId z = vocab_.FindPredicate("Z").value();
  const ConjunctiveQuery flag{{Atom(z, {})}, {}};
  ConjunctiveQuery flagged = Query("E(x,y)");
  flagged.atoms.emplace_back(z, std::vector<TermId>{});
  flagged.atoms.emplace_back(z, std::vector<TermId>{});
  const ConjunctiveQuery plain = Query("E(x,y)");
  ExpectKernelMatchesOracle(vocab_, flag, flagged);
  ExpectKernelMatchesOracle(vocab_, flag, plain);
  ExpectKernelMatchesOracle(vocab_, plain, flagged);
  EXPECT_TRUE(Contains(vocab_, flag, flagged));
  EXPECT_FALSE(Contains(vocab_, flag, plain));
  ExpectMinimizeMatchesOracle(vocab_, flagged);
  EXPECT_EQ(MinimizeQuery(vocab_, flagged).size(), 2u);
}

TEST_F(KernelTest, LiteralDuplicateTargetAtoms) {
  // Duplicates collapse in the target, as in the canonical database, so
  // the selectivity counts (and hence the first match) are unchanged.
  const ConjunctiveQuery target =
      Query("q(a) :- E(a,b), E(a,b), E(a,c), E(c,d), E(a,b), E(c,d)");
  EXPECT_EQ(CompiledQuery(vocab_, target).num_atoms(), 3u);
  const ConjunctiveQuery pattern = Query("q(a) :- E(a,y), E(y,z)");
  ExpectKernelMatchesOracle(vocab_, pattern, target);
  ExpectMinimizeMatchesOracle(vocab_, target);
}

// ------------------------------------------------------ Structure homs ----

TEST_F(HomTest, StructureHomomorphismFolding) {
  FactSet source = Facts("E(A,B), E(A,D)");
  FactSet target = Facts("E(A,B)");
  // B, D mappable; A fixed.
  auto hom = StructureHomomorphism(vocab_, source, target, {C("A")});
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(Apply(*hom, C("D")), C("B"));
  // Fixing D makes it impossible.
  EXPECT_FALSE(
      StructureHomomorphism(vocab_, source, target, {C("A"), C("D")})
          .has_value());
}

TEST_F(HomTest, HomomorphicImage) {
  FactSet source = Facts("E(A,B), E(B,D)");
  PredicateId e = vocab_.FindPredicate("E").value();
  Substitution sub = {{C("D"), C("B")}, {C("B"), C("A")}};
  FactSet image = HomomorphicImage(sub, source);
  EXPECT_EQ(image.size(), 2u);
  EXPECT_TRUE(image.Contains(Atom(e, {C("A"), C("A")})));
  EXPECT_TRUE(image.Contains(Atom(e, {C("A"), C("B")})));
}

TEST_F(HomTest, CoreRetractOfFoldablePath) {
  // E(A,B), E(A,D): D folds onto B; core has 1 atom.
  FactSet facts = Facts("E(A,B), E(A,D)");
  FactSet core = CoreRetract(vocab_, facts, {C("A")});
  EXPECT_EQ(core.size(), 1u);
}

TEST_F(HomTest, CoreRetractKeepsFixedTerms) {
  FactSet facts = Facts("E(A,B), E(A,D)");
  FactSet core = CoreRetract(vocab_, facts, {C("A"), C("B"), C("D")});
  EXPECT_EQ(core.size(), 2u) << "fixing both leaves nothing to fold";
}

TEST_F(HomTest, CoreRetractOfRigidStructure) {
  FactSet path = Facts("E(A,B), E(B,D)");
  FactSet core = CoreRetract(vocab_, path, {C("A")});
  // Nothing folds: D cannot map anywhere (B has no outgoing edge image
  // except D itself... folding D onto B would need E(B,B)).
  EXPECT_EQ(core.size(), 2u);
}

// ----------------------------------------------------------- Model check --

TEST_F(HomTest, ModelCheckTransitivity) {
  Theory t = ParseT("E(x,y), E(y,z) -> E(x,z)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("E(A,B), E(B,D)"), t));
  EXPECT_TRUE(IsModelOf(vocab_, Facts("E(A,B), E(B,D), E(A,D)"), t));
}

TEST_F(HomTest, ModelCheckExistentialHead) {
  Theory t = ParseT("Human(y) -> exists z . Mother(y,z)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("Human(Abel)"), t));
  EXPECT_TRUE(IsModelOf(vocab_, Facts("Human(Abel), Mother(Abel,Eve)"), t));
}

TEST_F(HomTest, ModelCheckDomainVariableRule) {
  // forall x (true -> exists z R(x,z)): every domain element needs an
  // R-successor.
  Theory t = ParseT("true -> exists z . R(x,z)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("R(A,B)"), t))
      << "B lacks a successor";
  EXPECT_TRUE(IsModelOf(vocab_, Facts("R(A,B), R(B,B)"), t));
}

TEST_F(HomTest, ModelCheckLoopRule) {
  Theory t = ParseT("true -> exists x . R(x,x)");
  EXPECT_FALSE(IsModelOf(vocab_, Facts("R(A,B)"), t));
  EXPECT_TRUE(IsModelOf(vocab_, Facts("R(A,A)"), t));
}

TEST_F(HomTest, FindViolationReportsRule) {
  Theory t = ParseT("E(x,y), E(y,z) -> E(x,z)");
  auto violation = FindViolation(vocab_, Facts("E(A,B), E(B,D)"), t);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule_index, 0u);
}

TEST_F(HomTest, EmptySetIsModelOfBodyRules) {
  Theory t = ParseT("E(x,y) -> exists z . E(y,z)");
  EXPECT_TRUE(IsModelOf(vocab_, FactSet(), t));
}

}  // namespace
}  // namespace frontiers
