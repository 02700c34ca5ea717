// Property tests for the columnar fact store: the struct-of-arrays
// segments, id-keyed dedup, posting-list indexes, and the batch-insert
// path must behave exactly like a naive row-store oracle, and the
// set-at-a-time commit must keep the chase byte-identical across worker
// thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/atom.h"
#include "base/columnar.h"
#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "base/worker_pool.h"
#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"

namespace frontiers {
namespace {

// Deterministic pseudo-random stream (no global rand state).
struct Lcg {
  uint64_t state;
  uint32_t Next(uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  }
};

// A naive reference implementation of the FactSet contract: a duplicate-
// free atom list plus indexes recomputed the obvious way.
struct RowStoreOracle {
  std::vector<Atom> atoms;

  bool Insert(const Atom& atom) {
    if (std::find(atoms.begin(), atoms.end(), atom) != atoms.end()) {
      return false;
    }
    atoms.push_back(atom);
    return true;
  }

  std::vector<TermId> Domain() const {
    std::vector<TermId> out;
    std::unordered_set<TermId> seen;
    for (const Atom& atom : atoms) {
      for (TermId t : atom.args) {
        if (seen.insert(t).second) out.push_back(t);
      }
    }
    return out;
  }

  uint32_t AtomDegree(TermId t) const {
    uint32_t degree = 0;
    for (const Atom& atom : atoms) {
      if (std::find(atom.args.begin(), atom.args.end(), t) !=
          atom.args.end()) {
        ++degree;
      }
    }
    return degree;
  }

  std::vector<uint32_t> ByPredicate(PredicateId p) const {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < atoms.size(); ++i) {
      if (atoms[i].predicate == p) out.push_back(i);
    }
    return out;
  }

  std::vector<uint32_t> ByPredicatePositionTerm(PredicateId p, uint32_t pos,
                                                TermId t) const {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < atoms.size(); ++i) {
      if (atoms[i].predicate == p && pos < atoms[i].args.size() &&
          atoms[i].args[pos] == t) {
        out.push_back(i);
      }
    }
    return out;
  }
};

std::vector<uint32_t> Materialize(const PostingList& list) {
  std::vector<uint32_t> out;
  out.reserve(list.size());
  for (uint32_t v : list) out.push_back(v);
  return out;
}

// A workload mixing small term/predicate universes (lots of duplicate
// atoms and repeated terms within one atom) across arities 1..3.
std::vector<Atom> RandomAtoms(Vocabulary& vocab, size_t count,
                              uint64_t seed) {
  std::vector<PredicateId> preds = {
      vocab.AddPredicate("ColA", 1), vocab.AddPredicate("ColB", 2),
      vocab.AddPredicate("ColC", 3), vocab.AddPredicate("ColD", 2)};
  std::vector<TermId> terms;
  for (int i = 0; i < 12; ++i) {
    terms.push_back(vocab.Constant("c" + std::to_string(i)));
  }
  Lcg rng{seed};
  std::vector<Atom> out;
  for (size_t i = 0; i < count; ++i) {
    PredicateId p = preds[rng.Next(static_cast<uint32_t>(preds.size()))];
    std::vector<TermId> args(vocab.PredicateArity(p));
    for (TermId& a : args) {
      a = terms[rng.Next(static_cast<uint32_t>(terms.size()))];
    }
    out.push_back(Atom(p, args));
  }
  return out;
}

// Every insert path — single rows, the serial batch, and the parallel batch
// at {1,4} threads x {1,8} shards, each fed in several blocks so batches
// dedup against resident rows — must build the oracle's store.  The oracle
// is the test's own list of inserted atoms; the store keeps one copy of
// each atom (its segment rows), so every check reads that copy.
TEST(ColumnarStore, AgreesWithRowStoreOracleUnderDuplicateHeavyInserts) {
  Vocabulary vocab;
  std::vector<Atom> workload = RandomAtoms(vocab, 2000, 0xC0FFEE);
  RowStoreOracle oracle;
  std::vector<bool> oracle_new;
  for (const Atom& atom : workload) oracle_new.push_back(oracle.Insert(atom));

  struct Path {
    std::string name;
    std::function<void(FactSet&, const std::vector<Atom>&)> fill;
  };
  std::vector<Path> paths = {
      {"InsertRow",
       [&](FactSet& store, const std::vector<Atom>& atoms) {
         for (size_t i = 0; i < atoms.size(); ++i) {
           const Atom& a = atoms[i];
           EXPECT_EQ(store.InsertRow(a.predicate, a.args.data(),
                                     static_cast<uint32_t>(a.args.size()))
                         .inserted,
                     oracle_new[i])
               << "row " << i;
         }
       }}};
  // Blocks of 300 rows: several batches, each with fresh and resident
  // duplicates.
  auto fill_in_blocks = [](WorkerPool* pool, bool parallel) {
    return [pool, parallel](FactSet& store, const std::vector<Atom>& atoms) {
      for (size_t begin = 0; begin < atoms.size(); begin += 300) {
        RowBlock block;
        for (size_t i = begin; i < std::min(atoms.size(), begin + 300); ++i) {
          block.Append(atoms[i].predicate, atoms[i].args.data(),
                       atoms[i].args.size());
        }
        if (parallel) {
          store.InsertBatchParallel(block, nullptr, pool);
        } else {
          store.InsertBatch(block, nullptr);
        }
      }
    };
  };
  paths.push_back({"InsertBatch", fill_in_blocks(nullptr, false)});
  WorkerPool pool1(1), pool4(4);
  for (WorkerPool* pool : {&pool1, &pool4}) {
    paths.push_back({"InsertBatchParallel/threads=" +
                         std::to_string(pool->threads()),
                     fill_in_blocks(pool, true)});
  }

  for (const Path& path : paths) {
    for (uint32_t shards : {1u, 8u}) {
      SCOPED_TRACE(path.name + " shards=" + std::to_string(shards));
      FactSet store(shards);
      path.fill(store, workload);
      ASSERT_EQ(store.size(), oracle.atoms.size());
      EXPECT_EQ(std::vector<Atom>(store.atoms()), oracle.atoms)
          << "insertion order must match";
      EXPECT_EQ(store.Domain(), oracle.Domain()) << "first-occurrence order";

      for (TermId t = 0; t < 64; ++t) {
        EXPECT_EQ(store.AtomDegree(t), oracle.AtomDegree(t)) << "term " << t;
        EXPECT_EQ(store.ContainsTerm(t), oracle.AtomDegree(t) > 0)
            << "term " << t;
      }
      for (PredicateId p = 0; p < 4; ++p) {
        EXPECT_EQ(store.ByPredicate(p), oracle.ByPredicate(p));
        for (uint32_t pos = 0; pos < vocab.PredicateArity(p); ++pos) {
          for (TermId t = 0; t < 16; ++t) {
            EXPECT_EQ(Materialize(store.ByPredicatePositionTerm(p, pos, t)),
                      oracle.ByPredicatePositionTerm(p, pos, t))
                << "p=" << p << " pos=" << pos << " t=" << t;
          }
        }
      }
      // Lookup round-trips: every oracle atom is found at its own id, and
      // that id's predicate and segment row hold exactly its terms.
      for (uint32_t i = 0; i < oracle.atoms.size(); ++i) {
        const Atom& atom = oracle.atoms[i];
        EXPECT_EQ(store.IndexOf(atom), std::optional<uint32_t>(i));
        EXPECT_EQ(store.PredicateOf(i), atom.predicate) << "atom " << i;
        const ColumnarSegment* seg = store.Segment(atom.predicate);
        ASSERT_NE(seg, nullptr);
        ASSERT_EQ(&store.SegmentOf(i), seg);
        for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
          EXPECT_EQ(seg->Term(store.LocalRow(i), pos), atom.args[pos]);
        }
      }
    }
  }
}

TEST(ColumnarStore, InsertBatchMatchesSequentialInsertRow) {
  Vocabulary vocab;
  std::vector<Atom> workload = RandomAtoms(vocab, 1500, 0xBEEF);
  RowBlock block;
  for (const Atom& atom : workload) {
    block.Append(atom.predicate, atom.args.data(), atom.args.size());
  }

  FactSet sequential;
  std::vector<FactSet::InsertOutcome> seq_outcomes;
  size_t seq_added = 0;
  for (const Atom& atom : workload) {
    FactSet::InsertOutcome out = sequential.InsertRow(
        atom.predicate, atom.args.data(),
        static_cast<uint32_t>(atom.args.size()));
    if (out.inserted) ++seq_added;
    seq_outcomes.push_back(out);
  }

  FactSet batched;
  std::vector<FactSet::InsertOutcome> batch_outcomes;
  size_t batch_added = batched.InsertBatch(block, &batch_outcomes);

  EXPECT_EQ(batch_added, seq_added);
  EXPECT_EQ(batched.atoms(), sequential.atoms());
  EXPECT_EQ(batched.Domain(), sequential.Domain());
  ASSERT_EQ(batch_outcomes.size(), seq_outcomes.size());
  for (size_t i = 0; i < batch_outcomes.size(); ++i) {
    EXPECT_EQ(batch_outcomes[i].index, seq_outcomes[i].index) << "row " << i;
    EXPECT_EQ(batch_outcomes[i].inserted, seq_outcomes[i].inserted)
        << "row " << i;
  }
}

TEST(ColumnarStore, InsertBatchStopsAtTheCapButStillRecordsDuplicates) {
  Vocabulary vocab;
  std::vector<Atom> workload = RandomAtoms(vocab, 600, 0xFACADE);
  RowBlock block;
  for (const Atom& atom : workload) {
    block.Append(atom.predicate, atom.args.data(), atom.args.size());
  }
  const size_t cap = 40;

  // Reference semantics, row by row: at the cap only duplicate rows pass;
  // the first *new* row past the cap ends the batch without being
  // consumed.
  FactSet reference;
  std::vector<FactSet::InsertOutcome> ref_outcomes;
  for (const Atom& atom : workload) {
    if (reference.size() >= cap) {
      std::optional<uint32_t> existing = reference.IndexOf(atom);
      if (!existing.has_value()) break;
      ref_outcomes.push_back({*existing, false});
      continue;
    }
    ref_outcomes.push_back(reference.InsertRow(
        atom.predicate, atom.args.data(),
        static_cast<uint32_t>(atom.args.size())));
  }

  FactSet capped;
  std::vector<FactSet::InsertOutcome> outcomes;
  capped.InsertBatch(block, &outcomes, cap);

  EXPECT_EQ(capped.size(), cap);
  EXPECT_LT(outcomes.size(), block.rows()) << "the batch must truncate";
  ASSERT_EQ(outcomes.size(), ref_outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, ref_outcomes[i].index) << "row " << i;
    EXPECT_EQ(outcomes[i].inserted, ref_outcomes[i].inserted) << "row " << i;
  }
  EXPECT_EQ(capped.atoms(), reference.atoms());
}

TEST(ColumnarStore, PostingListFrontAndOrderFollowInsertion) {
  Vocabulary vocab;
  PredicateId e = vocab.AddPredicate("E", 2);
  TermId hub = vocab.Constant("hub");
  FactSet store;
  std::vector<uint32_t> expected;
  for (int i = 0; i < 50; ++i) {
    TermId leaf = vocab.Constant("leaf" + std::to_string(i));
    TermId args[2] = {hub, leaf};
    expected.push_back(store.InsertRow(e, args, 2).index);
  }
  PostingList list = store.ByPredicatePositionTerm(e, 0, hub);
  ASSERT_EQ(list.size(), expected.size());
  EXPECT_EQ(list.front(), expected.front());
  EXPECT_EQ(Materialize(list), expected);
  EXPECT_TRUE(store.ByPredicatePositionTerm(e, 1, hub).empty());
  EXPECT_TRUE(store.ByPredicatePositionTerm(e, 7, hub).empty())
      << "out-of-range position is empty, not UB";
}

// The set-at-a-time (batch) commit must not disturb the determinism
// contract: identical bytes at every worker count on catalog workloads.
TEST(ColumnarStore, BatchCommitIsByteIdenticalAcrossThreadCounts) {
  struct Workload {
    const char* name;
    Theory (*theory)(Vocabulary&);
    FactSet (*instance)(Vocabulary&);
  };
  const Workload workloads[] = {
      {"sticky39",
       StickyExample39Theory,
       [](Vocabulary& v) { return Star39Instance(v, 3); }},
      {"td-grid", TdTheory,
       [](Vocabulary& v) { return EdgePath(v, "G", 4, "a"); }},
  };
  for (const Workload& w : workloads) {
    ChaseResult baseline;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      Vocabulary vocab;
      Theory theory = w.theory(vocab);
      FactSet db = w.instance(vocab);
      ChaseOptions options;
      options.max_rounds = 3;
      options.threads = threads;
      ChaseEngine engine(vocab, theory);
      ChaseResult result = engine.Run(db, options);
      if (threads == 1) {
        baseline = std::move(result);
        continue;
      }
      EXPECT_EQ(result.facts.atoms(), baseline.facts.atoms())
          << w.name << " threads=" << threads;
      EXPECT_EQ(result.depth, baseline.depth)
          << w.name << " threads=" << threads;
      EXPECT_EQ(result.birth_atom, baseline.birth_atom)
          << w.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace frontiers
