#include "hom/query_kernel.h"

#include <algorithm>

#include "base/check.h"
#include "base/hash_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace frontiers {

namespace {

// Smallest power of two >= 2 * n (and >= 4): an open-addressed table size
// that keeps probe chains short.
size_t TableSize(size_t n) {
  size_t size = 4;
  while (size < 2 * n) size *= 2;
  return size;
}

}  // namespace

CompiledQuery::CompiledQuery(const Vocabulary& vocab,
                             const ConjunctiveQuery& query) {
  size_t total_args = 0;
  for (const Atom& atom : query.atoms) total_args += atom.args.size();
  FRONTIERS_CHECK(total_args < kNone / 4, "CompiledQuery: query too large");

  // Dense term ids in first-occurrence order, through an open-addressed
  // table keyed by TermId; args_ first holds every atom's dense arguments.
  const size_t term_mask = TableSize(total_args) - 1;
  std::vector<uint32_t> term_table(term_mask + 1, kNone);
  auto intern = [&](TermId t, bool add) {
    size_t slot = HashIdSpan(0, &t, 1) & term_mask;
    for (; term_table[slot] != kNone; slot = (slot + 1) & term_mask) {
      if (terms_[term_table[slot]] == t) return term_table[slot];
    }
    if (!add) return kNone;
    term_table[slot] = static_cast<uint32_t>(terms_.size());
    terms_.push_back(t);
    return term_table[slot];
  };
  terms_.reserve(total_args);
  args_.reserve(total_args);
  for (const Atom& atom : query.atoms) {
    for (TermId t : atom.args) args_.push_back(intern(t, true));
  }
  const uint32_t num_terms = static_cast<uint32_t>(terms_.size());

  answer_ = query.answer_vars;
  answer_is_var_.reserve(answer_.size());
  answer_dense_.reserve(answer_.size());
  for (TermId v : answer_) {
    answer_is_var_.push_back(vocab.IsVariable(v) ? 1 : 0);
    answer_dense_.push_back(intern(v, false));
  }
  mappable_.assign(num_terms, 0);
  for (uint32_t k = 0; k < num_terms; ++k) {
    if (vocab.IsVariable(terms_[k])) {
      mappable_[k] = 1;
    } else {
      rigid_.emplace_back(terms_[k], k);
    }
  }
  std::sort(rigid_.begin(), rigid_.end());
  for (size_t i = 0; i < answer_.size(); ++i) {
    if (answer_is_var_[i] && answer_dense_[i] != kNone) {
      mappable_[answer_dense_[i]] = 0;
    }
  }

  // Distinct atoms.  A literal duplicate of an earlier atom is dropped, as
  // the canonical database would, found through an open-addressed table of
  // atom hashes; the kept atoms' arguments are compacted in place.
  const size_t atom_mask = TableSize(query.atoms.size()) - 1;
  std::vector<uint32_t> atom_table(atom_mask + 1, kNone);
  std::vector<PredicateId> predicate;  // per distinct atom
  predicate.reserve(query.atoms.size());
  args_begin_.reserve(query.atoms.size() + 1);
  args_begin_.push_back(0);
  uint32_t read = 0;
  for (const Atom& atom : query.atoms) {
    const uint32_t arity = static_cast<uint32_t>(atom.args.size());
    const uint32_t* args = args_.data() + read;
    read += arity;
    size_t slot = HashIdSpan(atom.predicate, args, arity) & atom_mask;
    bool duplicate = false;
    for (; atom_table[slot] != kNone; slot = (slot + 1) & atom_mask) {
      const uint32_t a = atom_table[slot];
      if (predicate[a] == atom.predicate &&
          args_begin_[a + 1] - args_begin_[a] == arity &&
          std::equal(args, args + arity, args_.data() + args_begin_[a])) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    atom_table[slot] = static_cast<uint32_t>(predicate.size());
    predicate.push_back(atom.predicate);
    const uint32_t write = args_begin_.back();
    if (write != read - arity) {
      std::copy(args, args + arity, args_.begin() + write);
    }
    args_begin_.push_back(write + arity);
  }
  args_.resize(args_begin_.back());
  const uint32_t num_atoms = static_cast<uint32_t>(predicate.size());

  // Predicate buckets, sorted by predicate id (queries use few predicates);
  // each bucket lists its atoms in atom order.
  for (uint32_t a = 0; a < num_atoms; ++a) {
    auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), predicate[a],
        [](const Bucket& b, PredicateId p) { return b.predicate < p; });
    const uint32_t arity = args_begin_[a + 1] - args_begin_[a];
    if (it == buckets_.end() || it->predicate != predicate[a]) {
      it = buckets_.insert(it, {predicate[a], arity, 0, 0, 0});
    }
    FRONTIERS_CHECK(it->arity == arity,
                    "CompiledQuery: a predicate used with two arities");
    ++it->count;
  }
  uint32_t slots = 0;
  uint32_t begin = 0;
  for (Bucket& bucket : buckets_) {
    bucket.slot_base = slots;
    bucket.begin = begin;
    slots += bucket.arity;
    begin += bucket.count;
  }
  atom_bucket_.resize(num_atoms);
  bucket_atoms_.resize(num_atoms);
  {
    std::vector<uint32_t> fill(buckets_.size(), 0);
    for (uint32_t a = 0; a < num_atoms; ++a) {
      const uint32_t b = static_cast<uint32_t>(
          std::lower_bound(
              buckets_.begin(), buckets_.end(), predicate[a],
              [](const Bucket& x, PredicateId p) { return x.predicate < p; }) -
          buckets_.begin());
      atom_bucket_[a] = b;
      bucket_atoms_[buckets_[b].begin + fill[b]++] = a;
    }
  }

  // Count index: a counting sort of the (slot, atom) occurrences by term
  // keeps atom order; each term's short run is then grouped by slot.
  term_begin_.assign(num_terms + 1, 0);
  for (uint32_t t : args_) ++term_begin_[t + 1];
  for (uint32_t t = 0; t < num_terms; ++t) term_begin_[t + 1] += term_begin_[t];
  std::vector<std::pair<uint32_t, uint32_t>> occurrences(args_.size());
  {
    std::vector<uint32_t> fill(term_begin_.begin(), term_begin_.end() - 1);
    for (uint32_t a = 0; a < num_atoms; ++a) {
      const uint32_t base = buckets_[atom_bucket_[a]].slot_base;
      for (uint32_t i = args_begin_[a]; i < args_begin_[a + 1]; ++i) {
        occurrences[fill[args_[i]]++] = {base + (i - args_begin_[a]), a};
      }
    }
  }
  posting_atoms_.resize(args_.size());
  postings_.reserve(args_.size());
  for (uint32_t t = 0; t < num_terms; ++t) {
    const auto first = occurrences.begin() + term_begin_[t];
    const auto last = occurrences.begin() + term_begin_[t + 1];
    // Insertion sort: runs are short, and it is stable.
    for (auto it = first + (first != last); it < last; ++it) {
      for (auto j = it; j != first && j->first < (j - 1)->first; --j) {
        std::swap(*j, *(j - 1));
      }
    }
    // term_begin_ switches from occurrence to posting offsets here.
    term_begin_[t] = static_cast<uint32_t>(postings_.size());
    for (auto it = first; it != last; ++it) {
      const uint32_t at = static_cast<uint32_t>(it - occurrences.begin());
      if (it == first || it->first != (it - 1)->first) {
        postings_.push_back({it->first, at, 0});
      }
      ++postings_.back().count;
      posting_atoms_[at] = it->second;
    }
  }
  term_begin_[num_terms] = static_cast<uint32_t>(postings_.size());
}

uint32_t CompiledQuery::RigidDenseOf(TermId t) const {
  auto it = std::lower_bound(rigid_.begin(), rigid_.end(),
                             std::make_pair(t, uint32_t{0}));
  if (it == rigid_.end() || it->first != t) return kNone;
  return it->second;
}

// One search of the kernel: the pattern's terms bound to target terms in a
// flat array, and the fail-first backtracking of Matcher::ForEach on top.
//
// Matcher::ForEach re-estimates every unsolved atom at every node.  Here an
// atom's estimate is kept in `Scratch::size` and recomputed only when one of its
// terms gets bound (an estimate depends on nothing else), with an undo log
// for backtracking; the choices, and so the search order, are the same.
class QuerySearch {
 public:
  static constexpr uint32_t kNone = CompiledQuery::kNone;
  // A pattern term bound to a term the target does not contain.
  static constexpr uint32_t kAbsent = kNone - 1;
  // The estimate of a solved atom: never the minimum.
  static constexpr uint32_t kSolved = UINT32_MAX;

  // Working arrays, kept across searches on one thread so a search
  // allocates nothing once they have grown.
  struct Scratch {
    std::vector<uint32_t> bind;           // per pattern term: target term
    std::vector<uint32_t> target_bucket;  // per pattern bucket
    std::vector<uint32_t> size;           // per pattern atom: estimate
    std::vector<uint32_t> image;          // per pattern atom: target atom
    std::vector<uint32_t> trail;          // pattern terms bound, in order
    std::vector<std::pair<uint32_t, uint32_t>> undo;  // (atom, old size)
  };

  QuerySearch(const CompiledQuery& p, const CompiledQuery& q, uint32_t skip,
              Scratch& scratch)
      : p_(p), q_(q), skip_(skip), s_(scratch) {}

  // False when the answer tuples alone rule out a homomorphism.
  bool AnswersCompatible() const {
    if (p_.answer_.size() != q_.answer_.size()) return false;
    for (size_t i = 0; i < p_.answer_.size(); ++i) {
      const TermId f = p_.answer_[i];
      const TermId t = q_.answer_[i];
      // An answer-tuple constant maps only to itself.
      if (!p_.answer_is_var_[i]) {
        if (f != t) return false;
        continue;
      }
      for (size_t j = 0; j < i; ++j) {
        if (p_.answer_[j] == f && q_.answer_[j] != t) return false;
      }
    }
    return true;
  }

  bool Run(QueryMatch* match) {
    s_.bind.assign(p_.terms_.size(), kNone);
    for (const auto& [term, k] : p_.rigid_) {
      const uint32_t image = q_.RigidDenseOf(term);
      s_.bind[k] = image == kNone ? kAbsent : image;
    }
    for (size_t i = 0; i < p_.answer_.size(); ++i) {
      const uint32_t k = p_.answer_dense_[i];
      if (!p_.answer_is_var_[i] || k == kNone) continue;
      const uint32_t image = q_.answer_dense_[i];
      s_.bind[k] = image == kNone ? kAbsent : image;
    }
    // Each pattern bucket's target bucket: a merge of the two bucket lists,
    // both sorted by predicate.
    s_.target_bucket.assign(p_.buckets_.size(), kNone);
    for (size_t b = 0, j = 0; b < p_.buckets_.size(); ++b) {
      const CompiledQuery::Bucket& pb = p_.buckets_[b];
      while (j < q_.buckets_.size() && q_.buckets_[j].predicate < pb.predicate) {
        ++j;
      }
      if (j < q_.buckets_.size() && q_.buckets_[j].predicate == pb.predicate &&
          q_.buckets_[j].arity == pb.arity) {
        s_.target_bucket[b] = static_cast<uint32_t>(j);
      }
    }
    skip_bucket_ = skip_ == kNone ? kNone : q_.atom_bucket_[skip_];
    if (!Prefilter()) return false;
    s_.image.assign(p_.num_atoms(), kNone);
    s_.trail.clear();
    s_.undo.clear();
    if (!Solve()) return false;
    if (match != nullptr) Report(match);
    return true;
  }

 private:
  // Candidate list of one pattern atom: target atoms list[0, length), of
  // which `size` remain once the skipped atom is left out.
  struct Candidates {
    const uint32_t* list = nullptr;
    uint32_t length = 0;
    uint32_t size = 0;
  };

  // The first estimates.  An estimate of zero is a necessary-condition
  // failure: a pattern predicate absent from the target, or a rigid
  // position (a constant, or an answer variable under its fixed image)
  // with no match.  Either rejects before any search.
  bool Prefilter() {
    s_.size.resize(p_.num_atoms());
    for (uint32_t a = 0; a < p_.num_atoms(); ++a) {
      s_.size[a] = CandidatesFor(a).size;
      if (s_.size[a] == 0) return false;
    }
    return true;
  }

  // The target atoms of bucket `tb` holding dense term `image` at `pos`.
  Candidates Lookup(uint32_t tb, uint32_t pos, uint32_t image) const {
    Candidates out;
    if (image == kAbsent) return out;
    const uint32_t slot = q_.buckets_[tb].slot_base + pos;
    for (uint32_t e = q_.term_begin_[image]; e < q_.term_begin_[image + 1];
         ++e) {
      const CompiledQuery::Posting& posting = q_.postings_[e];
      if (posting.slot < slot) continue;
      if (posting.slot > slot) break;
      out.list = q_.posting_atoms_.data() + posting.begin;
      out.length = posting.count;
      out.size = posting.count;
      if (tb == skip_bucket_ && q_.args_[q_.args_begin_[skip_] + pos] == image) {
        --out.size;
      }
      break;
    }
    return out;
  }

  // Matcher's selectivity estimate: the smallest count at a bound position,
  // or the predicate's count when no position is bound.
  Candidates CandidatesFor(uint32_t a) const {
    const uint32_t tb = s_.target_bucket[p_.atom_bucket_[a]];
    Candidates best;
    if (tb == kNone) return best;
    bool constrained = false;
    uint32_t size = UINT32_MAX;
    for (uint32_t i = p_.args_begin_[a]; i < p_.args_begin_[a + 1]; ++i) {
      const uint32_t image = s_.bind[p_.args_[i]];
      if (image == kNone) continue;
      Candidates list = Lookup(tb, i - p_.args_begin_[a], image);
      if (list.size < size) {
        size = list.size;
        best = list;
        constrained = true;
      }
    }
    if (!constrained) {
      const CompiledQuery::Bucket& bucket = q_.buckets_[tb];
      best.list = q_.bucket_atoms_.data() + bucket.begin;
      best.length = bucket.count;
      best.size = bucket.count - (tb == skip_bucket_ ? 1 : 0);
    }
    return best;
  }

  // Re-estimates the unsolved atoms holding a term bound since trail
  // position `mark`, logging the old estimates.
  void Reestimate(size_t mark) {
    for (size_t i = mark; i < s_.trail.size(); ++i) {
      const uint32_t k = s_.trail[i];
      for (uint32_t e = p_.term_begin_[k]; e < p_.term_begin_[k + 1]; ++e) {
        const CompiledQuery::Posting& posting = p_.postings_[e];
        for (uint32_t j = 0; j < posting.count; ++j) {
          const uint32_t a = p_.posting_atoms_[posting.begin + j];
          if (s_.size[a] == kSolved) continue;
          const uint32_t size = CandidatesFor(a).size;
          if (size == s_.size[a]) continue;
          s_.undo.emplace_back(a, s_.size[a]);
          s_.size[a] = size;
        }
      }
    }
  }

  bool Solve() {
    // The unsolved atom with the fewest candidates, ties to the lowest
    // index (fail-first).
    uint32_t best_atom = kNone;
    uint32_t best_size = kSolved;
    for (uint32_t a = 0; a < s_.size.size(); ++a) {
      if (s_.size[a] < best_size) {
        best_size = s_.size[a];
        best_atom = a;
        if (best_size == 0) break;
      }
    }
    if (best_atom == kNone) return true;  // every atom is matched
    if (best_size == 0) return false;
    s_.size[best_atom] = kSolved;
    const Candidates best = CandidatesFor(best_atom);
    const uint32_t* pattern = p_.args_.data() + p_.args_begin_[best_atom];
    const uint32_t arity =
        p_.args_begin_[best_atom + 1] - p_.args_begin_[best_atom];
    const size_t mark = s_.trail.size();
    for (uint32_t c = 0; c < best.length; ++c) {
      const uint32_t t = best.list[c];
      if (t == skip_) continue;
      const uint32_t* target = q_.args_.data() + q_.args_begin_[t];
      bool ok = true;
      for (uint32_t pos = 0; pos < arity && ok; ++pos) {
        uint32_t& image = s_.bind[pattern[pos]];
        if (image == kNone) {
          image = target[pos];
          s_.trail.push_back(pattern[pos]);
        } else {
          ok = image == target[pos];
        }
      }
      if (ok) {
        const size_t undo_mark = s_.undo.size();
        Reestimate(mark);
        s_.image[best_atom] = t;
        if (Solve()) return true;
        while (s_.undo.size() > undo_mark) {
          s_.size[s_.undo.back().first] = s_.undo.back().second;
          s_.undo.pop_back();
        }
      }
      while (s_.trail.size() > mark) {
        s_.bind[s_.trail.back()] = kNone;
        s_.trail.pop_back();
      }
    }
    s_.size[best_atom] = best_size;
    return false;
  }

  void Report(QueryMatch* match) const {
    match->atom_image = s_.image;
    match->bindings.clear();
    for (size_t i = 0; i < p_.answer_.size(); ++i) {
      if (!p_.answer_is_var_[i]) continue;
      bool repeated = false;
      for (size_t j = 0; j < i && !repeated; ++j) {
        repeated = p_.answer_[j] == p_.answer_[i];
      }
      if (!repeated) match->bindings.emplace_back(p_.answer_[i], q_.answer_[i]);
    }
    for (uint32_t k = 0; k < p_.terms_.size(); ++k) {
      if (p_.mappable_[k]) {
        match->bindings.emplace_back(p_.terms_[k], q_.terms_[s_.bind[k]]);
      }
    }
  }

  const CompiledQuery& p_;
  const CompiledQuery& q_;
  const uint32_t skip_;
  uint32_t skip_bucket_ = kNone;
  Scratch& s_;
};

bool FindQueryHomomorphism(const CompiledQuery& pattern,
                           const CompiledQuery& target, uint32_t skip_atom,
                           QueryMatch* match) {
  // The search calls out to nothing, so one scratch per thread is never
  // shared by two live searches.
  thread_local QuerySearch::Scratch scratch;
  QuerySearch search(pattern, target, skip_atom, scratch);
  if (!search.AnswersCompatible()) return false;
  obs::Span span("hom.query", "hom");
  static obs::Counter& enumerations =
      obs::DefaultRegistry().GetCounter("frontiers.hom.enumerations");
  enumerations.Add();
  return search.Run(match);
}

}  // namespace frontiers
