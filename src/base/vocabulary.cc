#include "base/vocabulary.h"

#include <algorithm>

#include "base/check.h"
#include "base/worker_pool.h"

namespace frontiers {

namespace {

// Encodes a Skolem block key: the raw function-id tuple.  Block
// registration is once-per-rule cold path, so a string key is fine here;
// the per-row and per-term hot paths probe id-keyed tables instead.
std::string SkolemBlockKey(const std::vector<SkolemFnId>& fns) {
  std::string key;
  key.reserve(4 * fns.size());
  for (SkolemFnId f : fns) {
    key.append(reinterpret_cast<const char*>(&f), sizeof(f));
  }
  return key;
}

// Requests (and pending terms) per pool task in SkolemRows.
constexpr size_t kSkolemGrain = 4096;

// Runs `fn(begin, end)` over [0, count) in kSkolemGrain slices, on `pool`
// when there is more than one slice.
template <typename Fn>
void ForSlices(WorkerPool* pool, size_t count, Fn&& fn) {
  const size_t slices = (count + kSkolemGrain - 1) / kSkolemGrain;
  if (pool == nullptr || slices < 2) {
    if (count > 0) fn(size_t{0}, count);
    return;
  }
  pool->Run(slices, [&](size_t i) {
    fn(i * kSkolemGrain, std::min(count, (i + 1) * kSkolemGrain));
  });
}

}  // namespace

PredicateId Vocabulary::AddPredicate(std::string_view name, uint32_t arity) {
  auto it = predicate_index_.find(std::string(name));
  if (it != predicate_index_.end()) {
    FRONTIERS_CHECK(predicates_[it->second].arity == arity,
                    "predicate '" + std::string(name) +
                        "' redeclared with arity " + std::to_string(arity) +
                        " (was " +
                        std::to_string(predicates_[it->second].arity) + ")");
    return it->second;
  }
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back({std::string(name), arity});
  predicate_index_.emplace(std::string(name), id);
  return id;
}

std::optional<PredicateId> Vocabulary::FindPredicate(
    std::string_view name) const {
  auto it = predicate_index_.find(std::string(name));
  if (it == predicate_index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Vocabulary::PredicateName(PredicateId p) const {
  return predicates_[p].name;
}

uint32_t Vocabulary::PredicateArity(PredicateId p) const {
  return predicates_[p].arity;
}

TermId Vocabulary::Constant(std::string_view name) {
  auto it = constant_index_.find(std::string(name));
  if (it != constant_index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  TermData data;
  data.kind = TermKind::kConstant;
  data.name_index = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  terms_.push_back(std::move(data));
  constant_index_.emplace(std::string(name), id);
  return id;
}

TermId Vocabulary::Variable(std::string_view name) {
  auto it = variable_index_.find(std::string(name));
  if (it != variable_index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  TermData data;
  data.kind = TermKind::kVariable;
  data.name_index = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  terms_.push_back(std::move(data));
  variable_index_.emplace(std::string(name), id);
  return id;
}

TermId Vocabulary::FreshVariable(std::string_view prefix) {
  for (;;) {
    std::string name =
        std::string(prefix) + "#" + std::to_string(fresh_counter_++);
    if (variable_index_.find(name) == variable_index_.end()) {
      return Variable(name);
    }
  }
}

TermId Vocabulary::SkolemTerm(SkolemFnId fn, const std::vector<TermId>& args) {
  FRONTIERS_CHECK(
      skolem_fns_[fn].arity == args.size(),
      "Skolem term arity mismatch for function " + skolem_fns_[fn].signature +
          ": got " + std::to_string(args.size()) + " arguments, expected " +
          std::to_string(skolem_fns_[fn].arity));
  const TermId* request = args.data();
  const PendingTerms pending{static_cast<TermId>(terms_.size()), &request};
  const TermId id = InternTerm(fn, 0, pending);
  FillPendingTerms(pending, nullptr);
  return id;
}

TermId Vocabulary::InternTerm(SkolemFnId fn, uint32_t request,
                              const PendingTerms& pending) {
  const TermId* args = pending.request_args[request];
  const uint32_t arity = skolem_fns_[fn].arity;
  const uint64_t hash = HashIdSpan(fn, args, arity);
  const TermId next = static_cast<TermId>(terms_.size());
  const TermId id = skolem_term_index_.FindOrInsert(hash, next, [&](TermId t) {
    return terms_[t].fn == fn &&
           std::equal(args, args + arity, SkolemArgsOf(t, pending));
  });
  if (id != next) return id;
  TermData data;
  data.kind = TermKind::kSkolem;
  data.name_index = request;
  data.fn = fn;
  terms_.push_back(std::move(data));
  term_args_bytes_ += static_cast<uint64_t>(arity) * sizeof(TermId);
  return id;
}

void Vocabulary::FillPendingTerms(const PendingTerms& pending,
                                  WorkerPool* pool) {
  // Each slice writes only its own terms and reads the depths of
  // arguments, which precede `pending.base`, so slices never race.
  ForSlices(pool, terms_.size() - pending.base, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      TermData& data = terms_[pending.base + i];
      const TermId* args = pending.request_args[data.name_index];
      data.name_index = 0;
      data.args.assign(args, args + skolem_fns_[data.fn].arity);
      uint32_t depth = 0;
      for (TermId a : data.args) depth = std::max(depth, terms_[a].depth);
      data.depth = depth + 1;
    }
  });
}

uint32_t Vocabulary::SkolemBlock(const std::vector<SkolemFnId>& fns) {
  FRONTIERS_CHECK(!fns.empty(), "Skolem block must have at least one fn");
  uint32_t arity = skolem_fns_[fns[0]].arity;
  for (SkolemFnId f : fns) {
    FRONTIERS_CHECK(skolem_fns_[f].arity == arity,
                    "Skolem block functions must share one arity");
  }
  std::string key = SkolemBlockKey(fns);
  auto it = skolem_block_index_.find(key);
  if (it != skolem_block_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(skolem_blocks_.size());
  skolem_blocks_.push_back({static_cast<uint32_t>(skolem_block_fns_.size()),
                            static_cast<uint32_t>(fns.size()), arity});
  skolem_block_fns_.insert(skolem_block_fns_.end(), fns.begin(), fns.end());
  skolem_block_index_.emplace(std::move(key), id);
  return id;
}

const TermId* Vocabulary::SkolemRow(uint32_t block,
                                    const std::vector<TermId>& args) {
  FRONTIERS_CHECK(skolem_blocks_[block].arity == args.size(),
                  "Skolem row arity mismatch for block");
  const TermId* request = args.data();
  const PendingTerms pending{static_cast<TermId>(terms_.size()), &request};
  const TermId* row = InternRow(
      block, 0, HashIdSpan(block, args.data(), args.size()), pending);
  FillPendingTerms(pending, nullptr);
  return row;
}

void Vocabulary::SkolemRows(const std::vector<SkolemRowBatch>& batches,
                            WorkerPool* pool, std::vector<TermId>* rows) {
  const TermId base = static_cast<TermId>(terms_.size());
  std::vector<size_t> first(batches.size() + 1, 0);
  for (size_t b = 0; b < batches.size(); ++b) {
    first[b + 1] = first[b] + batches[b].size();
  }
  // Hash every request and locate its tuple (pure reads: parallel).
  std::vector<uint64_t> hashes(first.back());
  std::vector<const TermId*> request_args(first.back());
  for (size_t b = 0; b < batches.size(); ++b) {
    const SkolemRowBatch& batch = batches[b];
    ForSlices(pool, batch.size(), [&](size_t begin, size_t end) {
      for (size_t m = begin; m < end; ++m) {
        const uint32_t block = batch.blocks[m];
        const uint32_t arity = skolem_blocks_[block].arity;
        const uint32_t offset = batch.arg_offsets[m];
        const size_t stop =
            m + 1 < batch.size() ? batch.arg_offsets[m + 1] : batch.args.size();
        FRONTIERS_CHECK(stop - offset == arity,
                        "Skolem row arity mismatch for block");
        const TermId* args = batch.args.data() + offset;
        for (uint32_t i = 0; i < arity; ++i) {
          FRONTIERS_CHECK(args[i] < base,
                          "Skolem row argument is not an interned term");
        }
        hashes[first[b] + m] = HashIdSpan(block, args, arity);
        request_args[first[b] + m] = args;
      }
    });
  }
  // Probe and insert serially, in request order: this fixes the ids.
  const PendingTerms pending{base, request_args.data()};
  rows->clear();
  for (size_t b = 0; b < batches.size(); ++b) {
    const SkolemRowBatch& batch = batches[b];
    for (size_t m = 0; m < batch.size(); ++m) {
      const uint32_t request = static_cast<uint32_t>(first[b] + m);
      const TermId* row =
          InternRow(batch.blocks[m], request, hashes[request], pending);
      rows->insert(rows->end(), row,
                   row + skolem_blocks_[batch.blocks[m]].size);
    }
  }
  FillPendingTerms(pending, pool);
}

const TermId* Vocabulary::InternRow(uint32_t block, uint32_t request,
                                    uint64_t hash,
                                    const PendingTerms& pending) {
  // One probe keyed by (block, args).  Rows of the same block share the
  // argument tuple across all their terms, so equality checks the block id
  // and the first term's arguments.
  const TermId* args = pending.request_args[request];
  const uint32_t next = static_cast<uint32_t>(skolem_rows_.size());
  const uint32_t row =
      skolem_row_index_.FindOrInsert(hash, next, [&](uint32_t r) {
        return RowEquals(r, block, args, pending);
      });
  if (row != next) {
    return skolem_row_terms_.data() + skolem_rows_[row].terms_offset;
  }
  // Miss: intern each null through the per-term hash-consing table, so the
  // row agrees with any prior `SkolemTerm` calls (isomorphic heads in
  // other rules may already have created some of these terms).
  const SkolemBlockData& data = skolem_blocks_[block];
  const uint32_t offset = static_cast<uint32_t>(skolem_row_terms_.size());
  const SkolemFnId* fns = skolem_block_fns_.data() + data.fns_offset;
  for (uint32_t i = 0; i < data.size; ++i) {
    skolem_row_terms_.push_back(InternTerm(fns[i], request, pending));
  }
  skolem_rows_.push_back({block, offset});
  return skolem_row_terms_.data() + offset;
}

bool Vocabulary::RowEquals(uint32_t r, uint32_t block, const TermId* args,
                           const PendingTerms& pending) const {
  const SkolemRowData& existing = skolem_rows_[r];
  if (existing.block != block) return false;
  const TermId* stored =
      SkolemArgsOf(skolem_row_terms_[existing.terms_offset], pending);
  return std::equal(args, args + skolem_blocks_[block].arity, stored);
}

const TermId* Vocabulary::FindSkolemRow(uint32_t block,
                                        const std::vector<TermId>& args) const {
  FRONTIERS_CHECK(skolem_blocks_[block].arity == args.size(),
                  "Skolem row arity mismatch for block");
  const PendingTerms none{static_cast<TermId>(terms_.size()), nullptr};
  const uint32_t row = skolem_row_index_.Find(
      HashIdSpan(block, args.data(), args.size()),
      [&](uint32_t r) { return RowEquals(r, block, args.data(), none); });
  if (row == IdHashSet::kNotFound) return nullptr;
  return skolem_row_terms_.data() + skolem_rows_[row].terms_offset;
}

SkolemFnId Vocabulary::SkolemFunction(std::string_view signature,
                                      uint32_t arity) {
  auto it = skolem_fn_index_.find(std::string(signature));
  if (it != skolem_fn_index_.end()) {
    FRONTIERS_CHECK(skolem_fns_[it->second].arity == arity,
                    "Skolem function '" + std::string(signature) +
                        "' redeclared with arity " + std::to_string(arity) +
                        " (was " +
                        std::to_string(skolem_fns_[it->second].arity) + ")");
    return it->second;
  }
  SkolemFnId id = static_cast<SkolemFnId>(skolem_fns_.size());
  skolem_fns_.push_back({std::string(signature), arity});
  skolem_fn_index_.emplace(std::string(signature), id);
  return id;
}

const std::string& Vocabulary::TermName(TermId t) const {
  return names_[terms_[t].name_index];
}

void Vocabulary::AccountHeap(MemTotals& totals, MemAccounting mode) const {
  const auto strings = [mode](const auto& container, auto&& key_of) {
    uint64_t sum = 0;
    for (const auto& item : container) sum += StringHeapBytes(key_of(item), mode);
    return sum;
  };
  uint64_t terms = VectorHeapBytes(terms_, mode) +
                   VectorHeapBytes(names_, mode) +
                   strings(names_, [](const std::string& s) -> const std::string& {
                     return s;
                   }) +
                   VectorHeapBytes(predicates_, mode) +
                   strings(predicates_, [](const PredicateData& p) -> const std::string& {
                     return p.name;
                   });
  const auto string_map = [&](const auto& map, size_t node_payload) {
    uint64_t sum = UnorderedOverheadBytes(map.bucket_count(), map.size(),
                                          node_payload, mode);
    for (const auto& [key, value] : map) sum += StringHeapBytes(key, mode);
    return sum;
  };
  terms += string_map(predicate_index_,
                      sizeof(std::pair<const std::string, PredicateId>));
  terms += string_map(constant_index_,
                      sizeof(std::pair<const std::string, TermId>));
  terms += string_map(variable_index_,
                      sizeof(std::pair<const std::string, TermId>));
  totals.Add(MemComponent::kVocabTerms, terms);

  uint64_t skolem =
      term_args_bytes_ + skolem_term_index_.HeapBytes(mode) +
      VectorHeapBytes(skolem_fns_, mode) +
      strings(skolem_fns_, [](const SkolemFnData& f) -> const std::string& {
        return f.signature;
      }) +
      string_map(skolem_fn_index_,
                 sizeof(std::pair<const std::string, SkolemFnId>));
  if (mode == MemAccounting::kCapacity) {
    // The block/row tables are derived caches: they memoize (block, args)
    // probes and are rebuilt lazily after a process restart, so a resumed
    // vocabulary holds a different row population than the original's even
    // though the logical term state is identical.  Content mode — defined
    // as a pure function of logical state — therefore excludes them; they
    // are real bytes, so capacity mode (the stream / RSS-coverage figure)
    // keeps them.
    skolem += VectorHeapBytes(skolem_blocks_, mode) +
              VectorHeapBytes(skolem_block_fns_, mode) +
              string_map(skolem_block_index_,
                         sizeof(std::pair<const std::string, uint32_t>)) +
              VectorHeapBytes(skolem_rows_, mode) +
              VectorHeapBytes(skolem_row_terms_, mode) +
              skolem_row_index_.HeapBytes(mode);
  }
  totals.Add(MemComponent::kVocabSkolem, skolem);
}

std::string Vocabulary::TermToString(TermId t) const {
  const TermData& data = terms_[t];
  switch (data.kind) {
    case TermKind::kConstant:
    case TermKind::kVariable:
      return names_[data.name_index];
    case TermKind::kSkolem: {
      std::string out = "f" + std::to_string(data.fn) + "(";
      for (size_t i = 0; i < data.args.size(); ++i) {
        if (i > 0) out += ",";
        out += TermToString(data.args[i]);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace frontiers
