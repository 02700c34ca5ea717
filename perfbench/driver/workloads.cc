#include "driver/workloads.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "base/fact_set.h"
#include "base/vocabulary.h"
#include "catalog/strategies.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "frontier/marked_query.h"
#include "frontier/process.h"
#include "hom/query_ops.h"
#include "rewriting/rewriter.h"
#include "testing/rng.h"
#include "tgd/parser.h"

namespace perfbench {

void Tally::Add(const std::string& name, double value,
                const std::string& unit) {
  series_[name].push_back(value);
  units_[name] = unit;
}

const std::string& Tally::Unit(const std::string& name) const {
  return units_.at(name);
}

namespace {

using frontiers::ChaseEngine;
using frontiers::ChaseOptions;
using frontiers::ChaseResult;
using frontiers::ConjunctiveQuery;
using frontiers::FactSet;
using frontiers::Result;
using frontiers::Theory;
using frontiers::Vocabulary;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

void Expect(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.message());
  return std::move(result).value();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

// A span around one call into the engine, plus a stopwatch over the same
// interval for the per-layer samples.
class Timed {
 public:
  Timed(SpanLog* log, const char* name) : span_(log, name) {}
  double Seconds() const { return SecondsSince(start_); }

 private:
  SpanLog::Scope span_;
  int64_t start_ = NowNanos();
};

// ---------------------------------------------------------------------------
// Seeded rendering.  Inputs reach the engine only as DSL text: the seed
// picks every variable and constant name and the order of input atoms, and
// nothing a check compares depends on either.

struct AtomSpec {
  std::string predicate;
  std::vector<std::string> args;  // logical names
};

struct RuleSpec {
  std::string label;
  std::vector<AtomSpec> body;
  std::vector<std::string> exists;
  std::vector<AtomSpec> head;
};

class Renderer {
 public:
  explicit Renderer(uint64_t seed) : rng_(seed) {}

  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng_.Below(static_cast<uint32_t>(i))]);
    }
  }

  // Seeded name for a logical variable (`v...`) or constant (`K...`) key;
  // stable for the renderer's lifetime, distinct across keys.
  const std::string& Name(const std::string& key, char prefix) {
    auto [it, fresh] = names_.try_emplace(prefix + key);
    if (fresh) {
      do {
        it->second = prefix + std::to_string(rng_.Below(1u << 30));
      } while (!used_.insert(it->second).second);
    }
    return it->second;
  }

  std::string Atom(const AtomSpec& atom, const std::string& scope,
                   char prefix) {
    std::string out = atom.predicate + "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out += ",";
      out += Name(scope + atom.args[i], prefix);
    }
    return out + ")";
  }

  std::string Atoms(std::vector<AtomSpec> atoms, const std::string& scope,
                    char prefix, bool shuffle) {
    if (shuffle) Shuffle(atoms);
    std::string out;
    for (const AtomSpec& atom : atoms) {
      if (!out.empty()) out += ", ";
      out += Atom(atom, scope, prefix);
    }
    return out;
  }

  std::string Theory(const std::vector<RuleSpec>& rules) {
    std::string out;
    for (size_t r = 0; r < rules.size(); ++r) {
      const RuleSpec& rule = rules[r];
      const std::string scope = "r" + std::to_string(r) + ".";
      out += rule.label + ": ";
      out += rule.body.empty() ? "true" : Atoms(rule.body, scope, 'v', true);
      out += " -> ";
      if (!rule.exists.empty()) {
        out += "exists ";
        for (size_t i = 0; i < rule.exists.size(); ++i) {
          if (i > 0) out += ",";
          out += Name(scope + rule.exists[i], 'v');
        }
        out += " . ";
      }
      out += Atoms(rule.head, scope, 'v', false) + "\n";
    }
    return out;
  }

  std::string Query(const std::vector<std::string>& answer,
                    const std::vector<AtomSpec>& body,
                    const std::string& scope) {
    std::string out = "q(";
    for (size_t i = 0; i < answer.size(); ++i) {
      if (i > 0) out += ",";
      out += Name(scope + answer[i], 'v');
    }
    return out + ") :- " + Atoms(body, scope, 'v', true);
  }

  std::string Facts(const std::vector<AtomSpec>& facts) {
    return Atoms(facts, "", 'K', true);
  }

 private:
  frontiers::testing::SplitMix64 rng_;
  std::map<std::string, std::string> names_;
  std::unordered_set<std::string> used_;
};

std::string Key(const char* stem, uint32_t i) {
  return stem + std::to_string(i);
}

// A path E(stem0,stem1), ..., E(stem<len-1>,stem<len>).
std::vector<AtomSpec> PathAtoms(const std::string& predicate, const char* stem,
                                uint32_t length) {
  std::vector<AtomSpec> atoms;
  for (uint32_t i = 0; i < length; ++i) {
    atoms.push_back({predicate, {Key(stem, i), Key(stem, i + 1)}});
  }
  return atoms;
}

// ---------------------------------------------------------------------------
// Hom-layer checks shared by the rewriting workloads.  Each call is a span
// and a per-call sample, so the traced run reports call counts and p50s.

struct HomChecks {
  Probe& probe;
  const Vocabulary& vocab;
  size_t minimize_calls = 0;
  size_t contains_calls = 0;
  size_t contains_true = 0;

  bool IsMinimal(const ConjunctiveQuery& q) {
    Timed call(probe.log, "hom.minimize");
    const size_t size = frontiers::MinimizeQuery(vocab, q).size();
    probe.tally->Add("hom.minimize_us_p50", call.Seconds() * 1e6, "us");
    ++minimize_calls;
    return size == q.size();
  }

  bool Contains(const ConjunctiveQuery& phi, const ConjunctiveQuery& psi) {
    Timed call(probe.log, "hom.contains");
    const bool holds = frontiers::Contains(vocab, phi, psi);
    probe.tally->Add("hom.contains_us_p50", call.Seconds() * 1e6, "us");
    ++contains_calls;
    if (holds) ++contains_true;
    return holds;
  }

  void Report() {
    Tally& t = *probe.tally;
    t.Add("hom.minimize_calls", static_cast<double>(minimize_calls), "count");
    t.Add("hom.contains_calls", static_cast<double>(contains_calls), "count");
    t.Add("hom.contains_true_ratio",
          contains_calls == 0 ? 0.0
                              : static_cast<double>(contains_true) /
                                    static_cast<double>(contains_calls),
          "ratio");
  }
};

// ---------------------------------------------------------------------------
// td_rewrite: the Section 10 process on phi_R^n, n = 1..5 (E2b).

class TdRewrite : public Workload {
 public:
  TdRewrite(uint64_t seed, Size size)
      : max_n_(size == Size::kSmoke ? 2 : 5) {
    Renderer r(seed);
    for (uint32_t n = 1; n <= max_n_; ++n) {
      // phi_R^n(x, y) = R^n(x, x_n), R^n(y, y_n), G(x_n, y_n).
      std::vector<AtomSpec> body = PathAtoms("R", "x", n);
      for (AtomSpec& a : PathAtoms("R", "y", n)) body.push_back(a);
      body.push_back({"G", {Key("x", n), Key("y", n)}});
      const std::string scope = "phi" + std::to_string(n) + ".";
      phi_text_.push_back(r.Query({"x0", "y0"}, body, scope));
      // G^{2^n}(p0, p_{2^n}): the disjunct Theorem 5B says must appear.
      const uint32_t len = 1u << n;
      target_text_.push_back(r.Query({"p0", Key("p", len)},
                                     PathAtoms("G", "p", len),
                                     "path" + std::to_string(n) + "."));
    }
  }

  void Setup(Tally& tally) override {
    auto state = std::make_unique<State>();
    {
      const int64_t start = NowNanos();
      for (size_t i = 0; i < phi_text_.size(); ++i) {
        state->phi.push_back(Must(
            frontiers::ParseQuery(state->vocab, phi_text_[i]), "parse phi"));
        state->target.push_back(Must(
            frontiers::ParseQuery(state->vocab, target_text_[i]),
            "parse target"));
      }
      tally.Add("tgd.parse_s", SecondsSince(start), "s");
    }
    state->ctx = frontiers::TdContext::Make(state->vocab);
    state_ = std::move(state);
  }

  void Job(Probe& probe) override {
    frontiers::TdProcessOptions options;
    options.max_steps = 2'000'000;
    options.max_queries = 4'000'000;
    double process_s = 0.0;
    // The warm-up stops at n = max - 1: it reaches every code path, and
    // the largest call alone would double the run's length.
    const uint32_t top = probe.warm_up ? max_n_ - 1 : max_n_;
    for (uint32_t n = 1; n <= top; ++n) {
      Timed call(probe.log, "frontier.process");
      results_.push_back(frontiers::RunTdProcess(
          state_->vocab, state_->ctx, state_->phi[n - 1], options));
      process_s += call.Seconds();
    }
    probe.tally->Add("frontier.process_s", process_s, "s");
  }

  void Check(Probe& probe) override {
    static constexpr size_t kDisjuncts[] = {3, 8, 25, 106, 667};
    static constexpr size_t kMaxSize[] = {4, 8, 14, 24, 42};
    Expect(results_.size() == (probe.warm_up ? max_n_ - 1 : max_n_),
           "td: missing results");
    HomChecks hom{probe, state_->vocab};
    size_t steps = 0, marked = 0, improper = 0, disjuncts = 0;
    for (uint32_t n = 1; n <= results_.size(); ++n) {
      const frontiers::TdProcessResult& res = results_[n - 1];
      const std::string at = "td n=" + std::to_string(n) + ": ";
      Expect(res.completed, at + "process did not complete within budget");
      Expect(res.rewriting.size() == kDisjuncts[n - 1],
             at + "disjuncts " + std::to_string(res.rewriting.size()) +
                 " != " + std::to_string(kDisjuncts[n - 1]));
      size_t max_size = 0;
      bool found = false;
      for (const ConjunctiveQuery& d : res.rewriting) {
        max_size = std::max(max_size, d.size());
        Expect(hom.IsMinimal(d), at + "a disjunct is not minimal");
        const ConjunctiveQuery& target = state_->target[n - 1];
        if (hom.Contains(d, target) && hom.Contains(target, d)) found = true;
      }
      Expect(max_size == kMaxSize[n - 1],
             at + "max disjunct size " + std::to_string(max_size) +
                 " != " + std::to_string(kMaxSize[n - 1]));
      Expect(found, at + "no disjunct equivalent to G^{2^n}");
      steps += res.steps;
      marked += res.totally_marked;
      improper += res.discarded_improper;
      disjuncts += res.rewriting.size();
    }
    Tally& t = *probe.tally;
    t.Add("frontier.steps", static_cast<double>(steps), "count");
    t.Add("frontier.totally_marked", static_cast<double>(marked), "count");
    t.Add("frontier.discarded_improper", static_cast<double>(improper),
          "count");
    t.Add("frontier.disjuncts", static_cast<double>(disjuncts), "count");
    hom.Report();
  }

  void Release() override { results_.clear(); }

 private:
  struct State {
    Vocabulary vocab;
    std::vector<ConjunctiveQuery> phi;
    std::vector<ConjunctiveQuery> target;
    frontiers::TdContext ctx{};
  };

  const uint32_t max_n_;
  std::vector<std::string> phi_text_;
  std::vector<std::string> target_text_;
  std::unique_ptr<State> state_;
  std::vector<frontiers::TdProcessResult> results_;
};

// ---------------------------------------------------------------------------
// ucq_rewrite: piece-rewriting saturation of R under Example 41 (E7a),
// stopped by the disjunct-size cap.

class UcqRewrite : public Workload {
 public:
  UcqRewrite(uint64_t seed, Size size)
      : atom_cap_(size == Size::kSmoke ? 8 : 64),
        expected_disjuncts_(size == Size::kSmoke ? 8 : 64) {
    Renderer r(seed);
    theory_text_ = r.Theory(
        {{"pass", {{"E3", {"x", "y", "z"}}, {"R", {"x", "z"}}}, {},
          {{"R", {"y", "z"}}}}});
    atomic_text_ = r.Query({"a", "b"}, {{"R", {"a", "b"}}}, "atomic.");
  }

  void Setup(Tally& tally) override {
    auto state = std::make_unique<State>();
    {
      const int64_t start = NowNanos();
      state->theory = Must(
          frontiers::ParseTheory(state->vocab, theory_text_, "Ex41"), "theory");
      state->atomic =
          Must(frontiers::ParseQuery(state->vocab, atomic_text_), "query");
      tally.Add("tgd.parse_s", SecondsSince(start), "s");
    }
    state->rewriter =
        std::make_unique<frontiers::Rewriter>(state->vocab, state->theory);
    state->r = state->vocab.FindPredicate("R").value();
    state_ = std::move(state);
  }

  void Job(Probe& probe) override {
    frontiers::RewritingOptions options;
    options.max_queries = 100000;
    options.max_atoms_per_query = atom_cap_;
    Timed call(probe.log, "rewriting.rewrite");
    result_ = state_->rewriter->RewriteAtomicQuery(state_->r, options);
    rewrite_s_ = call.Seconds();
  }

  void Check(Probe& probe) override {
    Expect(result_.has_value(), "ucq: missing result");
    const frontiers::RewritingResult& res = *result_;
    Expect(res.status == frontiers::RewritingStatus::kBudgetExhausted,
           "ucq: expected the disjunct-size cap to stop the saturation");
    Expect(res.queries.size() == expected_disjuncts_,
           "ucq: disjuncts " + std::to_string(res.queries.size()) +
               " != " + std::to_string(expected_disjuncts_));
    Expect(res.MaxDisjunctSize() <= atom_cap_, "ucq: disjunct over the cap");
    HomChecks hom{probe, state_->vocab};
    bool has_atomic = false;
    for (size_t i = 0; i < res.queries.size(); ++i) {
      const ConjunctiveQuery& d = res.queries[i];
      Expect(hom.IsMinimal(d), "ucq: a disjunct is not minimal");
      if (d.size() == 1 && hom.Contains(d, state_->atomic) &&
          hom.Contains(state_->atomic, d)) {
        has_atomic = true;
      }
      for (size_t j = 0; j < res.queries.size(); ++j) {
        Expect(i == j || !hom.Contains(d, res.queries[j]),
               "ucq: disjuncts are not pairwise incomparable");
      }
    }
    Expect(has_atomic, "ucq: the atomic query itself is missing");
    hom.Report();
    Tally& t = *probe.tally;
    t.Add("rewriting.rewrite_s", rewrite_s_, "s");
    t.Add("rewriting.iterations", static_cast<double>(res.iterations),
          "count");
    t.Add("rewriting.candidates",
          static_cast<double>(res.candidates_generated), "count");
    t.Add("rewriting.disjuncts", static_cast<double>(res.queries.size()),
          "count");
    t.Add("rewriting.admit_ratio",
          res.candidates_generated == 0
              ? 0.0
              : static_cast<double>(res.queries.size()) /
                    static_cast<double>(res.candidates_generated),
          "ratio");
  }

  void Release() override { result_.reset(); }

 private:
  struct State {
    Vocabulary vocab;
    Theory theory;
    ConjunctiveQuery atomic;
    std::unique_ptr<frontiers::Rewriter> rewriter;
    frontiers::PredicateId r = 0;
  };

  const size_t atom_cap_;
  const size_t expected_disjuncts_;
  std::string theory_text_;
  std::string atomic_text_;
  std::unique_ptr<State> state_;
  std::optional<frontiers::RewritingResult> result_;
  double rewrite_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Chase workloads: a multi-threaded ChaseEngine::Run checked for atom count
// and byte parity with a 1-thread reference run, then checkpointed through
// the FRSN codec into a fresh vocabulary.

// FNV-1a over every atom (predicate, arguments) and its depth, in order:
// equal digests mean equal atom order and depths.
uint64_t Digest(const std::vector<frontiers::Atom>& atoms,
                const std::vector<uint32_t>& depth) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    mix(atoms[i].predicate);
    for (frontiers::TermId t : atoms[i].args) mix(t);
    mix(i < depth.size() ? depth[i] : ~0ull);
  }
  return h;
}

struct ChaseSpec {
  std::vector<RuleSpec> rules;
  std::vector<AtomSpec> facts;
  std::string theory_name;
  uint32_t rounds = 0;
  uint32_t threads = 0;
  size_t expected_atoms = 0;
  /// Builds the strategy filter, if the workload uses one.
  std::function<frontiers::ChaseFilter(const Vocabulary&, const Theory&,
                                       const FactSet&)>
      filter;
};

class ChaseWorkload : public Workload {
 public:
  ChaseWorkload(uint64_t seed, ChaseSpec spec) : spec_(std::move(spec)) {
    Renderer r(seed);
    theory_text_ = r.Theory(spec_.rules);
    facts_text_ = r.Facts(spec_.facts);
  }

  uint32_t Threads() const override { return spec_.threads; }

  void Setup(Tally& tally) override {
    auto state = std::make_unique<State>();
    {
      const int64_t start = NowNanos();
      state->theory = Must(frontiers::ParseTheory(state->vocab, theory_text_,
                                                  spec_.theory_name),
                           "theory");
      state->db = Must(frontiers::ParseFacts(state->vocab, facts_text_), "facts");
      tally.Add("tgd.parse_s", SecondsSince(start), "s");
    }
    state->engine =
        std::make_unique<ChaseEngine>(state->vocab, state->theory);
    state->options.max_rounds = spec_.rounds;
    state->options.max_atoms = 4'000'000;
    // Guards, not expected stops: tripping either fails the job.
    state->options.deadline_seconds = 60.0;
    state->options.max_bytes = size_t{4} << 30;
    state->options.threads = spec_.threads;
    if (spec_.filter) {
      state->options.filter =
          spec_.filter(state->vocab, state->theory, state->db);
    }
    state_ = std::move(state);
  }

  void Prepare() override {
    ChaseOptions serial = state_->options;
    serial.threads = 1;
    ChaseResult reference = state_->engine->Run(state_->db, serial);
    CheckShape(reference, "1-thread reference");
    reference_digest_ = Digest(reference.facts.atoms(), reference.depth);
  }

  void Job(Probe& probe) override {
    Timed call(probe.log, "chase.run");
    result_ = state_->engine->Run(state_->db, state_->options);
    run_s_ = call.Seconds();
  }

  void Check(Probe& probe) override {
    Expect(result_.has_value(), "chase: missing result");
    const ChaseResult& res = *result_;
    CheckShape(res, "job");
    const uint64_t digest = Digest(res.facts.atoms(), res.depth);
    Expect(digest == reference_digest_,
           "chase: result differs from the 1-thread reference run");
    // The checkpoint runs on the warm-up and on traced jobs: every run
    // checks the codec, and untraced timed jobs stay short enough to give
    // many samples.
    if (probe.warm_up || probe.log != nullptr) Checkpoint(probe, res, digest);
    RecordStats(*probe.tally, res);
  }

  void Release() override { result_.reset(); }

 private:
  struct State {
    Vocabulary vocab;
    Theory theory;
    FactSet db;
    std::unique_ptr<ChaseEngine> engine;
    ChaseOptions options;
  };

  void CheckShape(const ChaseResult& res, const std::string& what) const {
    Expect(res.stop == frontiers::ChaseStop::kRoundBudget,
           "chase " + what + ": unexpected stop '" +
               frontiers::ChaseStopName(res.stop) + "'");
    Expect(res.complete_rounds == spec_.rounds,
           "chase " + what + ": complete rounds " +
               std::to_string(res.complete_rounds));
    Expect(res.facts.size() == spec_.expected_atoms,
           "chase " + what + ": atoms " + std::to_string(res.facts.size()) +
               " != " + std::to_string(spec_.expected_atoms));
  }

  // MakeSnapshot + EncodeSnapshot + DecodeSnapshot + ApplySnapshotVocabulary
  // into a fresh vocabulary; the decoded state must equal the result.
  void Checkpoint(Probe& probe, const ChaseResult& res, uint64_t digest) {
    SpanLog::Scope checkpoint(probe.log, "snapshot.checkpoint");
    double make_s = 0.0, encode_s = 0.0, decode_s = 0.0, apply_s = 0.0;
    std::string bytes;
    {
      frontiers::ChaseSnapshot snapshot;
      {
        Timed call(probe.log, "snapshot.make");
        snapshot = Must(frontiers::MakeSnapshot(state_->vocab, state_->theory,
                                                res, state_->options),
                        "make snapshot");
        make_s = call.Seconds();
      }
      Timed call(probe.log, "snapshot.encode");
      bytes = frontiers::EncodeSnapshot(snapshot);
      encode_s = call.Seconds();
    }
    frontiers::ChaseSnapshot decoded;
    {
      Timed call(probe.log, "snapshot.decode");
      decoded = Must(frontiers::DecodeSnapshot(bytes), "decode snapshot");
      decode_s = call.Seconds();
    }
    Vocabulary fresh;
    {
      Timed call(probe.log, "snapshot.apply_vocabulary");
      const frontiers::Status status =
          frontiers::ApplySnapshotVocabulary(decoded, fresh);
      apply_s = call.Seconds();
      Expect(status.ok(), "apply snapshot vocabulary: " + status.message());
    }
    Expect(decoded.next_round == res.complete_rounds &&
               Digest(decoded.atoms, decoded.depth) == digest &&
               fresh.NumTerms() == state_->vocab.NumTerms(),
           "chase: decoded snapshot does not match the result");
    Tally& t = *probe.tally;
    t.Add("checkpoint_s", make_s + encode_s + decode_s + apply_s, "s");
    t.Add("snapshot.make_s", make_s, "s");
    t.Add("snapshot.encode_s", encode_s, "s");
    t.Add("snapshot.decode_s", decode_s, "s");
    t.Add("snapshot.bytes", static_cast<double>(bytes.size()), "bytes");
  }

  void RecordStats(Tally& t, const ChaseResult& res) const {
    const frontiers::ChaseStats& s = res.stats;
    const double commit = s.CommitSeconds();
    t.Add("chase.run_s", run_s_, "s");
    t.Add("chase.match_s", s.MatchSeconds(), "s");
    t.Add("chase.commit_expand_s", s.CommitExpandSeconds(), "s");
    t.Add("chase.commit_dedup_s", s.CommitDedupSeconds(), "s");
    t.Add("chase.commit_index_s", s.CommitIndexSeconds(), "s");
    t.Add("chase.other_s", s.total_seconds - s.MatchSeconds() - commit, "s");
    t.Add("chase.work_s", s.WorkSeconds(), "s");
    t.Add("chase.critical_path_s", s.CriticalPathSeconds(), "s");
    t.Add("chase.shard_wait_s", s.ShardWaitSeconds(), "s");
    t.Add("chase.rounds", static_cast<double>(s.rounds.size()), "count");
    t.Add("chase.rounds_parallel", static_cast<double>(s.ParallelRounds()),
          "count");
    t.Add("chase.matches", static_cast<double>(s.TotalMatches()), "count");
    t.Add("chase.staged", static_cast<double>(s.TotalStaged()), "count");
    t.Add("chase.atoms", static_cast<double>(res.facts.size()), "count");
    t.Add("chase.insert_ratio",
          s.TotalStaged() == 0 ? 0.0
                               : static_cast<double>(s.TotalInserted()) /
                                     static_cast<double>(s.TotalStaged()),
          "ratio");
    t.Add("chase.mem_content_bytes", static_cast<double>(res.approx_bytes),
          "bytes");
    t.Add("chase.mem_peak_bytes", static_cast<double>(res.peak_bytes),
          "bytes");
  }

  const ChaseSpec spec_;
  std::string theory_text_;
  std::string facts_text_;
  std::unique_ptr<State> state_;
  std::optional<ChaseResult> result_;
  uint64_t reference_digest_ = 0;
  double run_s_ = 0.0;
};

// Example 39's sticky star (E17c scaled up): E4(A,B1,B2,C1) plus
// R(A,C1..C<colors>) under one sticky rule, unfiltered.
ChaseSpec FanoutSpec(Size size) {
  const uint32_t colors = size == Size::kSmoke ? 4 : 32;
  const uint32_t rounds = size == Size::kSmoke ? 3 : 4;
  ChaseSpec spec;
  spec.theory_name = "Ex39";
  spec.rules = {{"see",
                 {{"E4", {"x", "y", "y1", "t"}}, {"R", {"x", "t1"}}},
                 {"y2"},
                 {{"E4", {"x", "y1", "y2", "t1"}}}}};
  spec.facts.push_back({"E4", {"A", "B1", "B2", "C1"}});
  for (uint32_t i = 1; i <= colors; ++i) {
    spec.facts.push_back({"R", {"A", Key("C", i)}});
  }
  spec.rounds = rounds;
  spec.threads = 4;
  // Input: 1 + colors atoms; round r adds colors^r E4 atoms.
  size_t atoms = 1 + colors;
  size_t layer = 1;
  for (uint32_t r = 1; r <= rounds; ++r) atoms += (layer *= colors);
  spec.expected_atoms = atoms;
  return spec;
}

// The T_d^3 tower on an I1-path under its witness strategy (E17b scaled
// up).  The strategy looks rules up by label, so labels are fixed.
ChaseSpec TowerSpec(Size size) {
  const uint32_t length = size == Size::kSmoke ? 6 : 36;
  ChaseSpec spec;
  spec.theory_name = "T_d^3";
  spec.rules.push_back({"loop", {}, {"x"},
                        {{"I3", {"x", "x"}}, {"I2", {"x", "x"}},
                         {"I1", {"x", "x"}}}});
  for (uint32_t k = 1; k <= 3; ++k) {
    spec.rules.push_back({"pins_" + std::to_string(k), {}, {"z"},
                          {{Key("I", k), {"x", "z"}}}});
  }
  for (uint32_t i = 1; i <= 2; ++i) {
    const std::string hi = Key("I", i + 1), lo = Key("I", i);
    spec.rules.push_back({"grid_" + std::to_string(i),
                          {{hi, {"x", "x1"}}, {lo, {"x", "u"}},
                           {lo, {"u", "u1"}}},
                          {"z"},
                          {{hi, {"u1", "z"}}, {lo, {"x1", "z"}}}});
  }
  spec.facts = PathAtoms("I1", "a", length);
  spec.rounds = size == Size::kSmoke ? 16 : 104;
  // One thread: with workers, each of the ~100 rounds that run in parallel
  // waits for worker wake-ups several times, and on a shared VM that
  // latency, not the engine, set the wall time (see README.md).
  spec.threads = 1;
  spec.expected_atoms = size == Size::kSmoke ? 369 : 16209;
  spec.filter = [](const Vocabulary& vocab, const Theory& theory,
                   const FactSet& db) {
    return frontiers::TdKWitnessStrategy(vocab, theory, 3, db);
  };
  return spec;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Size size) {
  if (name == "td_rewrite") return std::make_unique<TdRewrite>(seed, size);
  if (name == "ucq_rewrite") return std::make_unique<UcqRewrite>(seed, size);
  if (name == "chase_fanout") {
    return std::make_unique<ChaseWorkload>(seed, FanoutSpec(size));
  }
  if (name == "chase_tower") {
    return std::make_unique<ChaseWorkload>(seed, TowerSpec(size));
  }
  return nullptr;
}

}  // namespace perfbench
