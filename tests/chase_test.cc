#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "chase/chase.h"
#include "hom/query_ops.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  FactSet Facts(const std::string& text) {
    Result<FactSet> facts = ParseFacts(vocab_, text);
    EXPECT_TRUE(facts.ok()) << facts.status().message();
    return facts.value();
  }
  Theory ParseT(const std::string& text) {
    Result<Theory> t = ParseTheory(vocab_, text);
    EXPECT_TRUE(t.ok()) << t.status().message();
    return t.value();
  }
  ConjunctiveQuery Query(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(vocab_, text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }
  Vocabulary vocab_;
};

TEST_F(ChaseTest, Example1MotherChain) {
  // Example 1 / Example 7 of the paper.
  Theory t_a = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  ChaseEngine engine(vocab_, t_a);
  ChaseResult result = engine.RunToDepth(Facts("Human(Abel)"), 4);
  // Ch_1 adds Mother(Abel, mum(Abel)); Ch_2 adds Human(mum) and then
  // Mother(mum, mum(mum)) at depth 3.
  EXPECT_EQ(result.PrefixAtDepth(0).size(), 1u);
  EXPECT_EQ(result.PrefixAtDepth(1).size(), 2u);
  ConjunctiveQuery grandmother =
      Query("Mother(Abel,y), Mother(y,z)");
  EXPECT_FALSE(HoldsBoolean(vocab_, grandmother, result.PrefixAtDepth(2)));
  EXPECT_TRUE(HoldsBoolean(vocab_, grandmother, result.PrefixAtDepth(3)));
}

TEST_F(ChaseTest, Observation8LiteralEquality) {
  // Chasing a chase prefix yields literally the same atoms (Skolem naming).
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  FactSet db = Facts("E(A,B)");
  ChaseResult full = engine.RunToDepth(db, 5);
  FactSet middle = engine.RunToDepth(db, 2).facts;
  ChaseResult from_middle = engine.RunToDepth(middle, 3);
  EXPECT_TRUE(from_middle.facts.SetEquals(full.facts))
      << "Ch_3(Ch_2(D)) must literally equal Ch_5(D)";
}

TEST_F(ChaseTest, FixpointDetection) {
  Theory sym = ParseT("E(x,y) -> E(y,x)");
  ChaseEngine engine(vocab_, sym);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B), E(B,D)"), 10);
  EXPECT_TRUE(result.Terminated());
  EXPECT_LE(result.complete_rounds, 2u);
  EXPECT_EQ(result.facts.size(), 4u);
}

TEST_F(ChaseTest, NonTerminatingChaseHitsRoundBudget) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B)"), 7);
  EXPECT_EQ(result.stop, ChaseStop::kRoundBudget);
  EXPECT_EQ(result.complete_rounds, 7u);
  EXPECT_EQ(result.facts.size(), 8u) << "one new edge per round";
}

TEST_F(ChaseTest, AtomBudgetStopsEarly) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseOptions options;
  options.max_rounds = 100;
  options.max_atoms = 5;
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_EQ(result.stop, ChaseStop::kAtomBudget);
  EXPECT_LE(result.facts.size(), options.max_atoms);
}

TEST_F(ChaseTest, AtomBudgetIsEnforcedPerAtomNotPerApplication) {
  // Three-atom heads: the old per-application check let the result
  // overshoot the budget by up to the head size.
  Theory wide = ParseT("P(x) -> exists u . Q(x,u), R(x,u), S(x,u)");
  ChaseEngine engine(vocab_, wide);
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 4;
  ChaseResult result =
      engine.Run(Facts("P(A), P(B), P(D)"), options);
  EXPECT_EQ(result.stop, ChaseStop::kAtomBudget);
  EXPECT_LE(result.facts.size(), options.max_atoms);
  EXPECT_EQ(result.facts.size(), 4u) << "budget headroom should be used";
}

TEST_F(ChaseTest, AtomBudgetExactFitReportsFixpoint) {
  // A chase that terminates at exactly max_atoms atoms is a fixpoint, not
  // a budget stop: duplicates and never-attempted inserts must not trip
  // the budget check.
  Theory sym = ParseT("E(x,y) -> E(y,x)");
  ChaseEngine engine(vocab_, sym);
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 2;
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.facts.size(), 2u);
}

TEST_F(ChaseTest, MultiThreadedRunMatchesSequential) {
  Theory mixed = ParseT(R"(
    E(x,y), E(y,z) -> E(x,z)
    E(x,y) -> exists w . F(y,w)
    F(x,y) -> E(x,y)
    true -> exists z . R(x,z)
  )");
  ChaseEngine engine(vocab_, mixed);
  FactSet db = Facts("E(A,B), E(B,D), E(D,G)");
  ChaseOptions seq;
  seq.max_rounds = 4;
  ChaseOptions par = seq;
  par.threads = 4;
  ChaseResult r_seq = engine.Run(db, seq);
  ChaseResult r_par = engine.Run(db, par);
  // Byte-identical: same atoms in the same order, same depths.
  EXPECT_EQ(r_seq.facts.atoms(), r_par.facts.atoms());
  EXPECT_EQ(r_seq.depth, r_par.depth);
  EXPECT_EQ(r_seq.stop, r_par.stop);
}

TEST_F(ChaseTest, StatsCountRoundsAndPhases) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B)"), 3);
  ASSERT_EQ(result.stats.rounds.size(), 3u);
  // One new edge, hence one match/staging/commit, per round.
  for (const ChaseRoundStats& r : result.stats.rounds) {
    EXPECT_EQ(r.matches, 1u);
    EXPECT_EQ(r.staged, 1u);
    EXPECT_EQ(r.committed, 1u);
    EXPECT_EQ(r.atoms_inserted, 1u);
    EXPECT_EQ(r.preempted, 0u);
  }
  EXPECT_EQ(result.stats.TotalMatches(), 3u);
  EXPECT_GE(result.stats.total_seconds, 0.0);
}

TEST_F(ChaseTest, RestrictedStatsCountPreemptions) {
  // Two symmetric seeds stage two successor applications; the Datalog
  // symmetry atoms commit first and preempt both of them.
  Theory t = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,y) -> E(y,x)
  )");
  ChaseEngine engine(vocab_, t);
  ChaseOptions options;
  options.max_rounds = 6;
  options.variant = ChaseVariant::kRestricted;
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_TRUE(result.Terminated());
  EXPECT_GE(result.stats.TotalPreempted(), 1u);
}

TEST_F(ChaseTest, SemiNaiveMatchesNaive) {
  Theory mixed = ParseT(R"(
    E(x,y), E(y,z) -> E(x,z)
    E(x,y) -> exists w . F(y,w)
    F(x,y) -> E(x,y)
  )");
  ChaseEngine engine(vocab_, mixed);
  FactSet db = Facts("E(A,B), E(B,D), E(D,G)");
  ChaseOptions naive;
  naive.max_rounds = 4;
  naive.semi_naive = false;
  ChaseOptions delta;
  delta.max_rounds = 4;
  delta.semi_naive = true;
  ChaseResult r_naive = engine.Run(db, naive);
  ChaseResult r_delta = engine.Run(db, delta);
  EXPECT_TRUE(r_naive.facts.SetEquals(r_delta.facts));
  // Depths must agree too (both compute the same Ch_i stages).
  for (const Atom& atom : r_naive.facts.atoms()) {
    EXPECT_EQ(r_naive.DepthOf(atom), r_delta.DepthOf(atom));
  }
}

TEST_F(ChaseTest, SemiNaiveMatchesNaiveWithPins) {
  // Domain-variable rules are the delicate case for delta evaluation.
  Theory pins = ParseT(R"(
    true -> exists z . R(x,z)
    R(x,y), R(y,z) -> S(x,z)
  )");
  ChaseEngine engine(vocab_, pins);
  FactSet db = Facts("P(A), P(B)");
  ChaseOptions naive;
  naive.max_rounds = 3;
  naive.semi_naive = false;
  ChaseOptions delta;
  delta.max_rounds = 3;
  delta.semi_naive = true;
  ChaseResult r_naive = engine.Run(db, naive);
  ChaseResult r_delta = engine.Run(db, delta);
  EXPECT_TRUE(r_naive.facts.SetEquals(r_delta.facts));
  for (const Atom& atom : r_naive.facts.atoms()) {
    EXPECT_EQ(r_naive.DepthOf(atom), r_delta.DepthOf(atom));
  }
}

TEST_F(ChaseTest, LoopRuleFiresOnceAndReachesFixpoint) {
  Theory loop = ParseT("true -> exists x . R(x,x), G(x,x)");
  ChaseEngine engine(vocab_, loop);
  ChaseResult result = engine.RunToDepth(FactSet(), 5);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.facts.size(), 2u);
  // Both head atoms mention the same invented term.
  ASSERT_EQ(result.facts.Domain().size(), 1u);
}

TEST_F(ChaseTest, PinsRuleGrowsOneSuccessorPerTermPerRound) {
  Theory pins = ParseT("true -> exists z . R(x,z)");
  ChaseEngine engine(vocab_, pins);
  ChaseResult result = engine.RunToDepth(Facts("P(A)"), 3);
  // Round 1: R(A, f(A)).  Round 2: R(f(A), f(f(A))) (plus nothing for A:
  // semi-oblivious - f(A) already exists).  One new atom per round.
  EXPECT_EQ(result.facts.size(), 4u);
  EXPECT_EQ(result.PrefixAtDepth(1).size(), 2u);
  EXPECT_EQ(result.PrefixAtDepth(2).size(), 3u);
}

TEST_F(ChaseTest, BirthAtoms) {
  Theory t_a = ParseT("Human(y) -> exists z . Mother(y,z)");
  ChaseEngine engine(vocab_, t_a);
  ChaseResult result = engine.RunToDepth(Facts("Human(Abel)"), 1);
  ASSERT_EQ(result.birth_atom.size(), 1u);
  auto [term, atom_index] = *result.birth_atom.begin();
  EXPECT_TRUE(vocab_.IsSkolem(term));
  const Atom& birth = result.facts.atoms()[atom_index];
  EXPECT_EQ(vocab_.PredicateName(birth.predicate), "Mother");
  EXPECT_EQ(birth.args[1], term);
}

TEST_F(ChaseTest, ProvenanceParents) {
  Theory trans = ParseT("E(x,y), E(y,z) -> E(x,z)");
  ChaseEngine engine(vocab_, trans);
  ChaseOptions options;
  options.max_rounds = 3;
  options.track_provenance = true;
  ChaseResult result = engine.Run(Facts("E(A,B), E(B,D)"), options);
  PredicateId e = vocab_.FindPredicate("E").value();
  Atom derived(e, {vocab_.Constant("A"), vocab_.Constant("D")});
  std::optional<uint32_t> idx = result.facts.IndexOf(derived);
  ASSERT_TRUE(idx.has_value());
  ASSERT_TRUE(result.first_derivation[*idx].has_value());
  const Derivation& d = *result.first_derivation[*idx];
  EXPECT_EQ(d.rule_index, 0u);
  ASSERT_EQ(d.parents.size(), 2u);
  EXPECT_EQ(result.facts.atoms()[d.parents[0]],
            Atom(e, {vocab_.Constant("A"), vocab_.Constant("B")}));
}

TEST_F(ChaseTest, AllDerivationsRecorded) {
  // E(y,v) is derivable from either R-fact: both derivations recorded.
  Theory t = ParseT("E(x,y), R(z,y) -> exists v . E(y,v)");
  ChaseEngine engine(vocab_, t);
  ChaseOptions options;
  options.max_rounds = 1;
  options.record_all_derivations = true;
  ChaseResult result =
      engine.Run(Facts("E(A,B), R(C1,B), R(C2,B)"), options);
  // The invented atom E(B, f(B)) has two derivations (z = C1 and z = C2).
  ASSERT_EQ(result.facts.size(), 4u);
  EXPECT_EQ(result.all_derivations[3].size(), 2u);
}

TEST_F(ChaseTest, FilterSkipsApplications) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  ChaseOptions options;
  options.max_rounds = 5;
  options.filter = [](size_t, const Substitution&, const FactSet&) {
    return false;
  };
  ChaseResult result = engine.Run(Facts("E(A,B)"), options);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.facts.size(), 1u);
}

TEST_F(ChaseTest, Exercise23SelfLoopsAppear) {
  Theory t = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,x1), E(x1,x2) -> E(x1,x1)
  )");
  ChaseEngine engine(vocab_, t);
  ChaseResult result = engine.RunToDepth(Facts("E(A,B)"), 3);
  PredicateId e = vocab_.FindPredicate("E").value();
  TermId b = vocab_.Constant("B");
  EXPECT_TRUE(result.facts.Contains(Atom(e, {b, b})))
      << "rule 2 must derive the self-loop E(B,B)";
}

TEST_F(ChaseTest, ApplyRuleSharesSkolemAcrossSameFrontier) {
  Theory t = ParseT("E(x,y), P(x) -> exists v . F(y,v)");
  ChaseEngine engine(vocab_, t);
  // Two matches with the same frontier value y=B but different x must
  // produce the same skolemized head (semi-oblivious naming).
  TermId x = vocab_.Variable("x");
  TermId y = vocab_.Variable("y");
  Substitution s1 = {{x, vocab_.Constant("A")}, {y, vocab_.Constant("B")}};
  Substitution s2 = {{x, vocab_.Constant("C")}, {y, vocab_.Constant("B")}};
  EXPECT_EQ(engine.ApplyRule(0, s1), engine.ApplyRule(0, s2));
}

TEST_F(ChaseTest, MultiHeadSharedExistential) {
  Theory grid = ParseT(
      "R(x,x1), G(x,u), G(u,u1) -> exists z . R(u1,z), G(x1,z)");
  ChaseEngine engine(vocab_, grid);
  ChaseResult result =
      engine.RunToDepth(Facts("R(A,A1), G(A,B), G(B,B1)"), 1);
  EXPECT_EQ(result.facts.size(), 5u);
  // Both new atoms share the invented z term.
  const Atom& new_r = result.facts.atoms()[3];
  const Atom& new_g = result.facts.atoms()[4];
  EXPECT_EQ(new_r.args[1], new_g.args[1]);
  EXPECT_TRUE(vocab_.IsSkolem(new_r.args[1]));
}

TEST_F(ChaseTest, RestrictedChaseTerminatesWhereSemiObliviousDoesNot) {
  // E(x,y) -> exists z E(y,z) plus symmetry: the semi-oblivious chase
  // runs forever (fresh successors for every term), while the restricted
  // chase notices that E(y,x) already witnesses the head (footnote 19).
  Theory t = ParseT(R"(
    E(x,y) -> exists z . E(y,z)
    E(x,y) -> E(y,x)
  )");
  ChaseEngine engine(vocab_, t);
  FactSet db = Facts("E(A,B)");
  ChaseOptions semi;
  semi.max_rounds = 6;
  ChaseResult oblivious = engine.Run(db, semi);
  EXPECT_EQ(oblivious.stop, ChaseStop::kRoundBudget);

  ChaseOptions restricted;
  restricted.max_rounds = 6;
  restricted.variant = ChaseVariant::kRestricted;
  ChaseResult standard = engine.Run(db, restricted);
  EXPECT_TRUE(standard.Terminated());
  EXPECT_EQ(standard.facts.size(), 2u) << "E(A,B) and E(B,A) suffice";
}

TEST_F(ChaseTest, RestrictedChaseIsContainedInSemiOblivious) {
  Theory t = ParseT(R"(
    Human(y) -> exists z . Mother(y,z)
    Mother(x,y) -> Human(y)
  )");
  ChaseEngine engine(vocab_, t);
  FactSet db = Facts("Human(Abel)");
  ChaseOptions restricted;
  restricted.max_rounds = 4;
  restricted.variant = ChaseVariant::kRestricted;
  ChaseResult standard = engine.Run(db, restricted);
  ChaseResult oblivious = engine.RunToDepth(db, 4);
  EXPECT_TRUE(standard.facts.IsSubsetOf(oblivious.facts))
      << "restricted applications are a subset of semi-oblivious ones";
}

TEST_F(ChaseTest, DepthOfInputAndDerivedAtoms) {
  Theory t_p = ParseT("E(x,y) -> exists z . E(y,z)");
  ChaseEngine engine(vocab_, t_p);
  FactSet db = Facts("E(A,B)");
  ChaseResult result = engine.RunToDepth(db, 3);
  EXPECT_EQ(result.DepthOf(db.atoms()[0]), 0u);
  EXPECT_EQ(result.DepthOf(result.facts.atoms()[2]), 2u);
  PredicateId e = vocab_.FindPredicate("E").value();
  EXPECT_FALSE(result
                   .DepthOf(Atom(e, {vocab_.Constant("Z"),
                                     vocab_.Constant("Z")}))
                   .has_value());
}

// The memo's keys are the snapshot wire strings: the rule index as a
// host-order size_t, then the binding's TermIds.  Pinned byte for byte.
TEST(TriggerMemoTest, KeysAreFrontierKeyByteStrings) {
  if constexpr (sizeof(size_t) != 8 ||
                std::endian::native != std::endian::little) {
    GTEST_SKIP() << "the literal below is the little-endian 64-bit form";
  }
  TriggerMemo memo;
  EXPECT_TRUE(memo.Insert(2, {7, 0x01020304}));
  EXPECT_FALSE(memo.Insert(2, {7, 0x01020304}));
  EXPECT_TRUE(memo.Insert(0, {}));  // a rule with no head-universal variable
  EXPECT_FALSE(memo.Insert(0, {}));
  const std::vector<std::string> keys = memo.SortedKeys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], std::string("\x00\x00\x00\x00\x00\x00\x00\x00", 8));
  EXPECT_EQ(keys[1], std::string("\x02\x00\x00\x00\x00\x00\x00\x00"
                                 "\x07\x00\x00\x00\x04\x03\x02\x01",
                                 16));
  EXPECT_FALSE(memo.Erase(2, {0x01020304, 7}));
  EXPECT_FALSE(memo.Erase(1, {7, 0x01020304}));
  EXPECT_TRUE(memo.Erase(2, {7, 0x01020304}));
  EXPECT_EQ(memo.size(), 1u);
}

// Content-mode bytes are a function of the key set alone: after inserts
// and erases (middle rows, last rows, a whole rule), the memo reports what
// a fresh memo holding only the survivors reports, and equals it.
TEST(TriggerMemoTest, ContentBytesDependOnlyOnTheKeySet) {
  TriggerMemo memo;
  for (TermId i = 0; i < 200; ++i) {
    ASSERT_TRUE(memo.Insert(0, {i, i + 1}));
    ASSERT_TRUE(memo.Insert(3, {i}));
    if (i % 10 == 0) {
      ASSERT_TRUE(memo.Insert(1, {i, i, i}));
      ASSERT_TRUE(memo.Insert(6, {i}));  // the highest rule, erased whole
    }
  }
  TriggerMemo survivors;
  for (TermId i = 0; i < 200; ++i) {
    if (i % 3 == 0 || i > 190) {
      EXPECT_TRUE(memo.Erase(0, {i, i + 1}));
    } else {
      survivors.Insert(0, {i, i + 1});
    }
    if (i % 10 == 0) {
      EXPECT_TRUE(memo.Erase(1, {i, i, i}));
      EXPECT_TRUE(memo.Erase(6, {i}));
    }
    if (i % 2 == 0) survivors.Insert(3, {i});
  }
  for (TermId i = 0; i < 200; ++i) {
    if (i % 2 != 0) {
      EXPECT_TRUE(memo.Erase(3, {i}));
    }
  }
  EXPECT_FALSE(memo.Erase(3, {1}));
  EXPECT_FALSE(memo.Erase(7, {1}));
  EXPECT_EQ(memo.size(), survivors.size());
  EXPECT_EQ(memo, survivors);
  EXPECT_EQ(memo.SortedKeys(), survivors.SortedKeys());
  EXPECT_EQ(memo.HeapBytes(MemAccounting::kContent),
            survivors.HeapBytes(MemAccounting::kContent));
  EXPECT_GE(memo.HeapBytes(MemAccounting::kCapacity),
            memo.HeapBytes(MemAccounting::kContent));
  // Rows moved into erased slots are still found where they now live.
  for (TermId i = 0; i < 200; ++i) {
    EXPECT_EQ(memo.Insert(0, {i, i + 1}), i % 3 == 0 || i > 190);
  }
  survivors.Insert(5, {1});
  EXPECT_FALSE(memo == survivors);
}

}  // namespace
}  // namespace frontiers
