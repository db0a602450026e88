#include "hom/homomorphism.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <utility>

#include "base/bitset64.h"
#include "base/check.h"
#include "base/failpoint.h"
#include "base/row_pool.h"
#include "base/saturating.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/problem.h"
#include "hom/kernel.h"
#include "structure/relation_index.h"

namespace hompres {

namespace {

// One table constraint: the A-tuple `pattern` (over variables) must map
// into the tuple list of relation `rel` of B.
struct TupleConstraint {
  int rel;
  Tuple pattern;
};

// Reusable per-thread scratch of the packed solver. Domains live in flat
// row pools: at search depth l, level_words[l] holds n rows of `stride`
// uint64_t words (one packed candidate set per variable) and
// level_sizes[l] the matching popcounts, so "copy all domains for the
// next search node" is one contiguous memcpy instead of n vector<bool>
// copies. The pools are 64-byte aligned and the stride is padded
// (bitset64::PaddedWordsFor) so wide instances run full SIMD lanes with
// no ragged tail; the padding words start zero and every kernel keeps
// them zero. The pool grows to the largest instance a thread has seen
// and is reused across searches (leased, so nested searches on the same
// thread — e.g. one started from an enumeration callback — get their
// own).
struct SolverWorkspace {
  std::vector<AlignedWordPool> level_words;
  std::vector<std::vector<int>> level_sizes;
  AlignedWordPool supported;  // Propagate scratch: arity x stride rows
  AlignedWordPool covered;    // surjectivity scratch
  AlignedWordPool reachable;  // surjectivity scratch
  AlignedWordPool full_row;   // all m bits set
  AlignedWordPool adjacency;  // bitwise-AC value rows (see BuildAdjacency)
  std::vector<int> assignment;
};

std::vector<std::unique_ptr<SolverWorkspace>>& WorkspacePool() {
  thread_local std::vector<std::unique_ptr<SolverWorkspace>> pool;
  return pool;
}

// Checks a workspace out of the thread's pool for the lifetime of one
// HomSearch and returns it on destruction.
class WorkspaceLease {
 public:
  WorkspaceLease() {
    auto& pool = WorkspacePool();
    if (pool.empty()) {
      ws_ = std::make_unique<SolverWorkspace>();
    } else {
      ws_ = std::move(pool.back());
      pool.pop_back();
    }
  }
  ~WorkspaceLease() { WorkspacePool().push_back(std::move(ws_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  SolverWorkspace& Get() { return *ws_; }

 private:
  std::unique_ptr<SolverWorkspace> ws_;
};

// One variable's occurrence in a constraint, for the propagation
// worklist. `changed` is what a shrink of the variable records on the
// queued constraint: for a binary constraint over two distinct variables
// the bit of the variable's position (1 << i), so the revision knows
// which side moved; for every other constraint 1 ("revise everything").
struct Occurrence {
  int constraint;
  uint8_t changed;
};

class HomSearch {
 public:
  HomSearch(const HomProblem& problem, const EngineConfig& config,
            Budget& budget)
      : a_(*problem.source),
        b_(*problem.target),
        problem_(problem),
        config_(config),
        budget_(budget),
        ws_(lease_.Get()) {
    n_ = a_.UniverseSize();
    m_ = b_.UniverseSize();
    stride_ = bitset64::PaddedWordsFor(m_);
    size_t max_arity = 0;
    for (int rel = 0; rel < a_.GetVocabulary().NumRelations(); ++rel) {
      for (const Tuple& t : a_.Tuples(rel)) {
        constraints_.push_back(TupleConstraint{rel, t});
        max_arity = std::max(max_arity, t.size());
      }
    }
    max_arity_ = static_cast<int>(max_arity);
    if (config_.use_arc_consistency && config_.use_index &&
        !constraints_.empty()) {
      // A failed index build (allocation failure or injected fault)
      // degrades to pure-scan propagation: same answers, more tuples
      // visited per revision.
      index_ = b_.TryIndex();
    }
    // Var -> constraints mentioning it (each constraint once), for the
    // propagation worklist; and per constraint its number of distinct
    // unassigned variables, for the vertex-cover cut-off.
    occurrences_.assign(static_cast<size_t>(n_), {});
    unassigned_in_.assign(constraints_.size(), 0);
    for (size_t ci = 0; ci < constraints_.size(); ++ci) {
      const Tuple& pattern = constraints_[ci].pattern;
      const bool binary = pattern.size() == 2 && pattern[0] != pattern[1];
      for (size_t i = 0; i < pattern.size(); ++i) {
        bool dup = false;
        for (size_t j = 0; j < i; ++j) dup |= pattern[j] == pattern[i];
        if (dup) continue;
        occurrences_[static_cast<size_t>(pattern[i])].push_back(Occurrence{
            static_cast<int>(ci),
            static_cast<uint8_t>(binary ? 1u << i : 1u)});
        ++unassigned_in_[ci];
      }
      if (unassigned_in_[ci] >= 2) ++uncovered_;
    }
    cutoff_ = config_.use_arc_consistency && !config_.surjective &&
              problem_.mode != HomQueryMode::kEnumerate;
    if (problem_.mode == HomQueryMode::kProject) {
      is_free_.assign(static_cast<size_t>(n_), 0);
      for (int e : problem_.free) {
        HOMPRES_CHECK(e >= 0 && e < n_);
        if (is_free_[static_cast<size_t>(e)]) continue;
        is_free_[static_cast<size_t>(e)] = 1;
        ++free_unbound_;
      }
      answer_.resize(problem_.free.size());
    }
  }

  // Runs the search for problem.mode, emitting through `emit` (see
  // kernel.h). Returns the count (kCount) or the number of emits. After
  // Run, the caller distinguishes "space exhausted" from "budget
  // exhausted" via budget_.Stopped().
  uint64_t Run(const std::function<bool(const std::vector<int>&)>& emit) {
    emit_ = &emit;
    // A pre-assignment referencing an element outside either universe can
    // be satisfied by no map: report "no homomorphism" instead of
    // aborting (and never index past the domain rows).
    for (const auto& [var, val] : config_.forced) {
      if (var < 0 || var >= n_ || val < 0 || val >= m_) return 0;
    }
    ws_.assignment.assign(static_cast<size_t>(n_), -1);
    if (n_ == 0) {
      // The empty map is the unique homomorphism; surjectivity requires an
      // empty target.
      if (!config_.surjective || m_ == 0) EmitComplete();
      return found_;
    }
    if (m_ == 0) return 0;  // nonempty universe cannot map anywhere

    // Size the workspace for this instance. The outer level vectors are
    // sized once up front: Solve holds references into them across
    // recursive calls, so they must never reallocate mid-search.
    if (static_cast<int>(ws_.level_words.size()) < n_ + 1) {
      ws_.level_words.resize(static_cast<size_t>(n_ + 1));
      ws_.level_sizes.resize(static_cast<size_t>(n_ + 1));
    }
    ws_.supported.Resize(static_cast<size_t>(max_arity_) *
                         static_cast<size_t>(stride_));
    ws_.covered.Resize(static_cast<size_t>(stride_));
    ws_.reachable.Resize(static_cast<size_t>(stride_));
    ws_.full_row.Resize(static_cast<size_t>(stride_));
    bitset64::SetFirstN(ws_.full_row.data(), stride_, m_);
    BuildAdjacency();

    AlignedWordPool& words = LevelWords(0);
    std::vector<int>& sizes = LevelSizes(0);
    for (int v = 0; v < n_; ++v) {
      std::memcpy(Row(words, v), ws_.full_row.data(), RowBytes());
      sizes[static_cast<size_t>(v)] = m_;
    }
    for (const auto& [var, val] : config_.forced) {
      uint64_t* row = Row(words, var);
      const bool allowed = bitset64::Test(row, val);
      bitset64::ClearAll(row, stride_);
      if (!allowed) return 0;  // conflicting pre-assignments empty the domain
      bitset64::Set(row, val);
      sizes[static_cast<size_t>(var)] = 1;
    }
    if (config_.use_arc_consistency && !Propagate(words, sizes)) return 0;
    stopped_ = false;
    Solve(0, words, sizes);
    return found_;
  }

 private:
  size_t RowBytes() const {
    return static_cast<size_t>(stride_) * sizeof(uint64_t);
  }

  uint64_t* Row(AlignedWordPool& words, int var) const {
    return words.data() + static_cast<size_t>(var) * static_cast<size_t>(stride_);
  }
  const uint64_t* Row(const AlignedWordPool& words, int var) const {
    return words.data() + static_cast<size_t>(var) * static_cast<size_t>(stride_);
  }

  AlignedWordPool& LevelWords(int level) {
    AlignedWordPool& w = ws_.level_words[static_cast<size_t>(level)];
    const size_t need = static_cast<size_t>(n_) * static_cast<size_t>(stride_);
    // Resize zeroes the pool; skip it when the size already matches (the
    // rows get memcpy-overwritten before any read).
    if (w.size() != need) w.Resize(need);
    return w;
  }
  std::vector<int>& LevelSizes(int level) {
    std::vector<int>& s = ws_.level_sizes[static_cast<size_t>(level)];
    s.resize(static_cast<size_t>(n_));
    return s;
  }

  // Bitwise-AC adjacency rows for the binary constraints (the dominant
  // case: every graph query). For a binary relation R of B the pool holds
  // 2m packed rows of `stride_` words:
  //
  //   row(base + v)      = { u : (u, v) in R }   (support for position 0)
  //   row(base + m + u)  = { v : (u, v) in R }   (support for position 1)
  //
  // A revision of one side of a binary constraint with distinct variables
  // then computes that side's support set from the other side's domain
  // with whole-row kernel work instead of a scan over all of R's tuples
  // (see ReviseBinarySide). The union over dom(var1) of { u : (u, v) in R
  // } is exactly { u : exists v in dom(var1), (u, v) in R }; intersecting
  // dom(var0) with it equals intersecting with the tuple scan's marked
  // set (the scan's extra dom(var0) membership test is absorbed by the
  // intersection), so the propagation fixpoint — and every answer
  // derived from it — is bit-identical to the scan path.
  //
  // The rows are part of the indexed kernel (use_index): the pure-scan
  // ablation keeps measuring genuine tuple scans. Memory is
  // 2m * stride words per binary relation with at least one
  // distinct-variable constraint; relations without one never allocate.
  void BuildAdjacency() {
    const int num_rels = b_.GetVocabulary().NumRelations();
    adjacency_base_.assign(static_cast<size_t>(num_rels), -1);
    if (index_ == nullptr || !config_.use_arc_consistency) return;
    size_t rows = 0;
    for (const TupleConstraint& c : constraints_) {
      if (c.pattern.size() != 2 || c.pattern[0] == c.pattern[1]) continue;
      if (adjacency_base_[static_cast<size_t>(c.rel)] >= 0) continue;
      adjacency_base_[static_cast<size_t>(c.rel)] =
          static_cast<int64_t>(rows);
      rows += 2 * static_cast<size_t>(m_);
    }
    if (rows == 0) return;
    ws_.adjacency.Resize(rows * static_cast<size_t>(stride_));  // zeroed
    for (int rel = 0; rel < num_rels; ++rel) {
      const int64_t base = adjacency_base_[static_cast<size_t>(rel)];
      if (base < 0) continue;
      for (const Tuple& t : b_.Tuples(rel)) {
        bitset64::Set(AdjacencyRow(base, t[1]), t[0]);
        bitset64::Set(AdjacencyRow(base + m_, t[0]), t[1]);
      }
    }
  }

  uint64_t* AdjacencyRow(int64_t index) {
    return ws_.adjacency.data() +
           static_cast<size_t>(index) * static_cast<size_t>(stride_);
  }
  uint64_t* AdjacencyRow(int64_t base, int value) {
    return AdjacencyRow(base + value);
  }

  // Generalized arc consistency: drop unsupported values until fixpoint.
  // Returns false if some domain empties.
  //
  // Worklist discipline: a constraint is (re)queued exactly when one of
  // its variables' domains shrinks, and records which positions shrank;
  // `seed_var >= 0` starts from only the constraints mentioning that
  // variable (Solve narrows one variable per level, so everything else
  // is already at fixpoint from the parent level), `seed_var < 0` starts
  // from every constraint with every position marked. The revision
  // operators are monotone and reductive, so chaotic iteration converges
  // to the same greatest fixpoint in any order — the final domains, and
  // every answer derived from them, match the round-robin schedule bit
  // for bit, including the empty-domain (infeasible) verdict.
  //
  // Binary constraints with distinct variables take the one-sided
  // bitwise path (ReviseBinarySide) when the adjacency rows exist.
  // Otherwise, with the index enabled, a constraint whose pattern has a
  // singleton-domain (assigned) position only scans the inverted list of
  // that position's value — the shortest such list if several positions
  // are assigned. Every skipped tuple disagrees with a singleton domain,
  // so Compatible would have rejected it: the support sets, and hence
  // the propagation fixpoint, are bit-identical to the full scan on
  // every path.
  bool Propagate(AlignedWordPool& words, std::vector<int>& sizes,
                 int seed_var = -1) {
    uint64_t* supported = ws_.supported.data();
    const int num_constraints = static_cast<int>(constraints_.size());
    ac_queued_.assign(static_cast<size_t>(num_constraints), 0);
    ac_queue_.clear();
    if (seed_var >= 0) {
      EnqueueConstraintsOf(seed_var);
    } else {
      for (int ci = num_constraints - 1; ci >= 0; --ci) {
        ac_queued_[static_cast<size_t>(ci)] = 3;  // both positions
        ac_queue_.push_back(ci);
      }
    }
    while (!ac_queue_.empty()) {
      const int ci = ac_queue_.back();
      ac_queue_.pop_back();
      // Clear before revising: a revision that shrinks one of its own
      // variables must requeue itself (its other support sets were
      // computed from the pre-shrink domain).
      const uint8_t changed = ac_queued_[static_cast<size_t>(ci)];
      ac_queued_[static_cast<size_t>(ci)] = 0;
      const TupleConstraint& c = constraints_[static_cast<size_t>(ci)];
      const int arity = static_cast<int>(c.pattern.size());
      if (arity == 2 && c.pattern[0] != c.pattern[1] &&
          adjacency_base_[static_cast<size_t>(c.rel)] >= 0) {
        // The constraint was at fixpoint before position i shrank, so
        // only the other position can have lost support.
        if ((changed & 1) && !ReviseBinarySide(c, 1, words, sizes)) {
          return false;
        }
        if ((changed & 2) && !ReviseBinarySide(c, 0, words, sizes)) {
          return false;
        }
        continue;
      }
      // For each position, collect the values that appear in some
      // compatible B-tuple.
      bitset64::ClearAll(supported, arity * stride_);
      const std::vector<Tuple>& tuples = b_.Tuples(c.rel);
      std::span<const int> narrowed;
      bool use_narrowed = false;
      if (index_ != nullptr) {
        size_t best = tuples.size();
        for (int i = 0; i < arity; ++i) {
          const int var = c.pattern[static_cast<size_t>(i)];
          if (sizes[static_cast<size_t>(var)] != 1) continue;
          const int only = bitset64::FindFirst(Row(words, var), stride_);
          const auto ids = index_->TuplesAt(c.rel, i, only);
          if (ids.size() <= best) {
            best = ids.size();
            narrowed = ids;
            use_narrowed = true;
          }
        }
      }
      const auto mark = [&](const Tuple& s) {
        if (!Compatible(c.pattern, s, words)) return;
        for (int i = 0; i < arity; ++i) {
          bitset64::Set(supported + i * stride_,
                        s[static_cast<size_t>(i)]);
        }
      };
      if (use_narrowed) {
        for (int id : narrowed) mark(tuples[static_cast<size_t>(id)]);
      } else {
        for (const Tuple& s : tuples) mark(s);
      }
      for (int i = 0; i < arity; ++i) {
        const int var = c.pattern[static_cast<size_t>(i)];
        uint64_t* row = Row(words, var);
        if (bitset64::IntersectInPlace(row, supported + i * stride_,
                                       stride_)) {
          sizes[static_cast<size_t>(var)] =
              bitset64::Popcount(row, stride_);
          if (sizes[static_cast<size_t>(var)] == 0) return false;
          EnqueueConstraintsOf(var);
        }
      }
    }
    return true;
  }

  void EnqueueConstraintsOf(int var) {
    for (const Occurrence& occ : occurrences_[static_cast<size_t>(var)]) {
      uint8_t& queued = ac_queued_[static_cast<size_t>(occ.constraint)];
      if (queued == 0) ac_queue_.push_back(occ.constraint);
      queued |= occ.changed;
    }
  }

  // Revises position `side` of a binary distinct-variable constraint
  // against the other position's domain: a value y survives iff some x in
  // the other domain makes the pair a tuple of R. Two equal ways to
  // compute that, and the cheaper one runs:
  //   * the other domain is no larger: union the adjacency rows its
  //     values select (the first row is a copy, so a singleton — the
  //     common case during search — is one row op), then intersect;
  //   * otherwise: keep each y whose reverse adjacency row meets the
  //     other domain.
  // Both yield exactly the tuple scan's support set (see BuildAdjacency).
  bool ReviseBinarySide(const TupleConstraint& c, int side,
                        AlignedWordPool& words, std::vector<int>& sizes) {
    const int var = c.pattern[static_cast<size_t>(side)];
    const int other = c.pattern[static_cast<size_t>(1 - side)];
    const int64_t base = adjacency_base_[static_cast<size_t>(c.rel)];
    // Rows indexed by a value of `other` listing var's supported values,
    // and rows indexed by a value of `var` listing other's.
    const int64_t support_base = side == 0 ? base : base + m_;
    const int64_t reverse_base = side == 0 ? base + m_ : base;
    uint64_t* row = Row(words, var);
    const uint64_t* other_row = Row(words, other);
    int& size = sizes[static_cast<size_t>(var)];
    if (sizes[static_cast<size_t>(other)] <= size) {
      uint64_t* sup = ws_.supported.data();
      // Never empty: an emptied domain aborts the propagation.
      int v = bitset64::FindFirst(other_row, stride_);
      std::memcpy(sup, AdjacencyRow(support_base, v), RowBytes());
      for (v = bitset64::FindNext(other_row, stride_, v); v >= 0;
           v = bitset64::FindNext(other_row, stride_, v)) {
        bitset64::UnionInPlace(sup, AdjacencyRow(support_base, v), stride_);
      }
      if (!bitset64::IntersectInPlace(row, sup, stride_)) return true;
      size = bitset64::Popcount(row, stride_);
    } else {
      const int before = size;
      for (int y = bitset64::FindFirst(row, stride_); y >= 0;
           y = bitset64::FindNext(row, stride_, y)) {
        if (!bitset64::Intersects(AdjacencyRow(reverse_base, y), other_row,
                                  stride_)) {
          bitset64::Reset(row, y);
          --size;
        }
      }
      if (size == before) return true;
    }
    if (size == 0) return false;
    EnqueueConstraintsOf(var);
    return true;
  }

  // Is B-tuple s compatible with the pattern under current domains
  // (including repeated-variable consistency)?
  bool Compatible(const Tuple& pattern, const Tuple& s,
                  const AlignedWordPool& words) const {
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (!bitset64::Test(Row(words, pattern[i]),
                          s[i])) {
        return false;
      }
      for (size_t j = i + 1; j < pattern.size(); ++j) {
        if (pattern[i] == pattern[j] && s[i] != s[j]) return false;
      }
    }
    return true;
  }

  // Check constraints whose variables are all assigned.
  bool AssignedConsistent() const {
    for (const TupleConstraint& c : constraints_) {
      Tuple image;
      image.reserve(c.pattern.size());
      bool full = true;
      for (int var : c.pattern) {
        const int val = ws_.assignment[static_cast<size_t>(var)];
        if (val == -1) {
          full = false;
          break;
        }
        image.push_back(val);
      }
      if (full && !b_.HasTuple(c.rel, image)) return false;
    }
    return true;
  }

  // Surjectivity pruning: every target value must be assigned or still
  // available in some unassigned domain, and the uncovered values must
  // fit in the unassigned variables.
  bool SurjectivityPossible(const AlignedWordPool& words) {
    uint64_t* covered = ws_.covered.data();
    uint64_t* reach = ws_.reachable.data();
    bitset64::ClearAll(covered, stride_);
    bitset64::ClearAll(reach, stride_);
    int unassigned = 0;
    for (int var = 0; var < n_; ++var) {
      const int val = ws_.assignment[static_cast<size_t>(var)];
      if (val != -1) {
        bitset64::Set(covered, val);
      } else {
        ++unassigned;
        bitset64::UnionInPlace(reach, Row(words, var), stride_);
      }
    }
    int missing = 0;
    for (int w = 0; w < stride_; ++w) {
      const uint64_t uncovered = ws_.full_row.data()[w] & ~covered[w];
      if ((uncovered & ~reach[w]) != 0) return false;  // unreachable value
      missing += std::popcount(uncovered);
    }
    return missing <= unassigned;
  }

  // Smallest domain first, ties to the lowest index. A projection picks
  // among its unbound free elements while any remain.
  int PickVariable(const std::vector<int>& sizes) const {
    int var = -1;
    int best_size = -1;
    for (int v = 0; v < n_; ++v) {
      if (ws_.assignment[static_cast<size_t>(v)] != -1) continue;
      if (free_unbound_ > 0 && !is_free_[static_cast<size_t>(v)]) continue;
      const int size = sizes[static_cast<size_t>(v)];
      if (var == -1 || size < best_size) {
        var = v;
        best_size = size;
      }
    }
    return var;
  }

  // Cover and projection bookkeeping for `var` becoming assigned for the
  // duration of its value loop (Release undoes it).
  void Claim(int var) {
    if (cutoff_) {
      for (const Occurrence& occ : occurrences_[static_cast<size_t>(var)]) {
        if (--unassigned_in_[static_cast<size_t>(occ.constraint)] == 1) {
          --uncovered_;
        }
      }
    }
    if (!is_free_.empty() && is_free_[static_cast<size_t>(var)]) {
      --free_unbound_;
    }
  }
  void Release(int var) {
    if (cutoff_) {
      for (const Occurrence& occ : occurrences_[static_cast<size_t>(var)]) {
        if (unassigned_in_[static_cast<size_t>(occ.constraint)]++ == 1) {
          ++uncovered_;
        }
      }
    }
    if (!is_free_.empty() && is_free_[static_cast<size_t>(var)]) {
      ++free_unbound_;
    }
  }

  void Emit(const std::vector<int>& out) {
    ++found_;
    if (*emit_ && !(*emit_)(out)) stopped_ = true;
  }

  // Adds `homs` homomorphisms to the count, stopping once it reaches the
  // limit (the answer is then exactly the limit).
  void Tally(uint64_t homs) {
    found_ = SatAdd(found_, homs);
    if (problem_.limit != 0 && found_ >= problem_.limit) {
      found_ = problem_.limit;
      stopped_ = true;
    }
  }

  // The free elements' images as the projected answer tuple.
  void EmitAnswer() {
    for (size_t i = 0; i < problem_.free.size(); ++i) {
      answer_[i] =
          ws_.assignment[static_cast<size_t>(problem_.free[i])];
    }
    Emit(answer_);
  }

  // ws_.assignment is a homomorphism — in kProject, its bound part is.
  void EmitComplete() {
    switch (problem_.mode) {
      case HomQueryMode::kCount:
        Tally(1);
        return;
      case HomQueryMode::kProject:
        EmitAnswer();
        return;
      case HomQueryMode::kHas:
      case HomQueryMode::kFind:
        Emit(ws_.assignment);
        stopped_ = true;
        return;
      case HomQueryMode::kEnumerate:
        Emit(ws_.assignment);
        return;
    }
  }

  // A complete assignment that passed propagation (or, in the naive
  // kernel, AssignedConsistent). Returns whether it is a homomorphism of
  // the requested kind.
  bool EmitLeaf() {
    if (config_.surjective) {
      bitset64::ClearAll(ws_.covered.data(), stride_);
      for (int val : ws_.assignment) bitset64::Set(ws_.covered.data(), val);
      if (bitset64::Popcount(ws_.covered.data(), stride_) != m_) return false;
    }
    EmitComplete();
    return true;
  }

  // The vertex-cover cut-off (kernel.h): the assigned elements cover
  // every constraint and the domains are arc consistent, so every
  // combination of the unassigned domains' values is a homomorphism.
  void EmitCovered(const AlignedWordPool& words,
                   const std::vector<int>& sizes) {
    switch (problem_.mode) {
      case HomQueryMode::kCount: {
        uint64_t product = 1;
        for (int v = 0; v < n_; ++v) {
          if (ws_.assignment[static_cast<size_t>(v)] != -1) continue;
          product = SatMul(product,
                           static_cast<uint64_t>(sizes[static_cast<size_t>(v)]));
        }
        Tally(product);
        return;
      }
      case HomQueryMode::kProject:
        EmitFreeProduct(words, 0);
        return;
      default:  // kHas, kFind: the first leaf below this node
        for (int v = 0; v < n_; ++v) {
          int& val = ws_.assignment[static_cast<size_t>(v)];
          if (val == -1) val = bitset64::FindFirst(Row(words, v), stride_);
        }
        EmitComplete();
        return;
    }
  }

  // Emits every binding of the unbound free elements from `from` on,
  // drawn from their domains, each extended by the bound ones.
  void EmitFreeProduct(const AlignedWordPool& words, int from) {
    int var = from;
    while (var < n_ && (!is_free_[static_cast<size_t>(var)] ||
                        ws_.assignment[static_cast<size_t>(var)] != -1)) {
      ++var;
    }
    if (var == n_) {
      EmitAnswer();
      return;
    }
    const uint64_t* row = Row(words, var);
    for (int val = bitset64::FindFirst(row, stride_); val >= 0 && !stopped_;
         val = bitset64::FindNext(row, stride_, val)) {
      ws_.assignment[static_cast<size_t>(var)] = val;
      EmitFreeProduct(words, var + 1);
    }
    ws_.assignment[static_cast<size_t>(var)] = -1;
  }

  // One search node. Returns whether the subtree reached a homomorphism.
  bool Solve(int level, AlignedWordPool& words, std::vector<int>& sizes) {
    if (stopped_) return false;
    if (!budget_.Checkpoint()) {
      stopped_ = true;
      return false;
    }
    if (cutoff_ && uncovered_ == 0) {
      EmitCovered(words, sizes);
      return true;
    }
    const int var = PickVariable(sizes);
    if (var == -1) return EmitLeaf();

    // Once every free element is bound, a projection only asks whether
    // the binding extends: the first homomorphism ends the subtree, and
    // the search backtracks to the deepest free element.
    const bool first_only =
        problem_.mode == HomQueryMode::kProject && free_unbound_ == 0;
    Claim(var);
    bool found = false;
    // The next level's buffers are fixed for the whole value loop: each
    // candidate overwrites them with a flat copy of this level's domains.
    const uint64_t* row = Row(words, var);
    AlignedWordPool& next_words = LevelWords(level + 1);
    std::vector<int>& next_sizes = LevelSizes(level + 1);
    for (int val = bitset64::FindFirst(row, stride_); val >= 0;
         val = bitset64::FindNext(row, stride_, val)) {
      ws_.assignment[static_cast<size_t>(var)] = val;
      std::memcpy(next_words.data(), words.data(),
                  words.size() * sizeof(uint64_t));
      std::memcpy(next_sizes.data(), sizes.data(), sizes.size() * sizeof(int));
      uint64_t* next_row = Row(next_words, var);
      bitset64::ClearAll(next_row, stride_);
      bitset64::Set(next_row, val);
      next_sizes[static_cast<size_t>(var)] = 1;
      bool feasible = true;
      if (config_.use_arc_consistency) {
        // Only `var` changed relative to this level's propagated domains,
        // so the worklist starts from its constraints alone.
        feasible = Propagate(next_words, next_sizes, var);
      } else {
        feasible = AssignedConsistent();
      }
      if (feasible && config_.surjective) {
        feasible = SurjectivityPossible(next_words);
      }
      if (feasible) found |= Solve(level + 1, next_words, next_sizes);
      ws_.assignment[static_cast<size_t>(var)] = -1;
      if (stopped_ || (found && first_only)) break;
    }
    Release(var);
    return found;
  }

  const Structure& a_;
  const Structure& b_;
  const HomProblem& problem_;
  const EngineConfig& config_;
  Budget& budget_;
  const RelationIndex* index_ = nullptr;  // null = pure-scan propagation
  std::vector<TupleConstraint> constraints_;
  // Per-relation first row of the bitwise-AC adjacency pool; -1 when the
  // relation has no binary distinct-variable constraint (or no index).
  std::vector<int64_t> adjacency_base_;
  // Propagation worklist state (see Propagate): per queued constraint,
  // the positions that shrank since it was queued.
  std::vector<std::vector<Occurrence>> occurrences_;
  std::vector<int> ac_queue_;
  std::vector<uint8_t> ac_queued_;
  // Vertex-cover state (kernel.h): distinct unassigned variables per
  // constraint, and how many constraints still have two or more.
  bool cutoff_ = false;
  std::vector<int> unassigned_in_;
  int uncovered_ = 0;
  // kProject state: which elements are free, how many distinct ones are
  // unbound, and the answer buffer.
  std::vector<char> is_free_;
  int free_unbound_ = 0;
  std::vector<int> answer_;
  const std::function<bool(const std::vector<int>&)>* emit_ = nullptr;
  uint64_t found_ = 0;  // the count (kCount) or the number of emits
  int n_ = 0;
  int m_ = 0;
  int stride_ = 0;  // words per packed domain row
  int max_arity_ = 0;
  bool stopped_ = false;
  WorkspaceLease lease_;  // declared before ws_: initialization order
  SolverWorkspace& ws_;
};

}  // namespace

uint64_t RunSerialHomKernel(
    const HomProblem& problem, const EngineConfig& config, Budget& budget,
    const std::function<bool(const std::vector<int>&)>& emit) {
  // An allocation failure while leasing or sizing the solver workspace
  // (real, or the injected "hom/workspace_alloc_hard" fault) is
  // unrecoverable at this level: contain it as a structured kMemory stop
  // so the caller sees an exhausted Outcome, never a crash. The
  // recoverable simulation — the AC workspace cannot grow, so the plan
  // falls back to the naive kernel — is the engine's
  // "hom/workspace_alloc" degradation rung.
  if (HOMPRES_FAILPOINT("hom/workspace_alloc_hard")) {
    budget.ForceStop(StopReason::kMemory);
    return 0;
  }
  try {
    HomSearch search(problem, config, budget);
    return search.Run(emit);
  } catch (const std::bad_alloc&) {
    budget.ForceStop(StopReason::kMemory);
    return 0;
  }
}

namespace {

// Plan in compatibility mode (incompatible settings are silently
// normalized, as these entry points always behaved) and hand the plan to
// the engine.
HomPlan CompatPlan(const HomProblem& problem, const EngineConfig& config) {
  PlanResult planned = PlanHomQuery(problem, config, PlanMode::kCompat);
  HOMPRES_CHECK(planned.plan.has_value());
  return *std::move(planned.plan);
}

}  // namespace

Outcome<std::optional<std::vector<int>>> FindHomomorphismBudgeted(
    const Structure& a, const Structure& b, Budget& budget,
    const EngineConfig& config) {
  using Result = Outcome<std::optional<std::vector<int>>>;
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kFind;
  auto out = Engine::Execute(CompatPlan(problem, config), budget);
  if (!out.IsDone()) return Result::StoppedShort(out.Report());
  const BudgetReport report = out.Report();
  return Result::Done(std::move(out).TakeValue().witness, report);
}

std::optional<std::vector<int>> FindHomomorphism(const Structure& a,
                                                 const Structure& b,
                                                 const EngineConfig& config) {
  Budget unlimited = Budget::Unlimited();
  return FindHomomorphismBudgeted(a, b, unlimited, config).Value();
}

bool HasHomomorphism(const Structure& a, const Structure& b,
                     const EngineConfig& config) {
  Budget unlimited = Budget::Unlimited();
  return HasHomomorphismBudgeted(a, b, unlimited, config).Value();
}

Outcome<bool> HasHomomorphismBudgeted(const Structure& a, const Structure& b,
                                      Budget& budget,
                                      const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kHas;
  auto out = Engine::Execute(CompatPlan(problem, config), budget);
  if (!out.IsDone()) return Outcome<bool>::StoppedShort(out.Report());
  return Outcome<bool>::Done(out.Value().has, out.Report());
}

bool VerifyHomomorphism(const Structure& a, const Structure& b,
                        const std::vector<int>& h) {
  if (static_cast<int>(h.size()) != a.UniverseSize()) return false;
  for (int val : h) {
    if (val < 0 || val >= b.UniverseSize()) return false;
  }
  for (int rel = 0; rel < a.GetVocabulary().NumRelations(); ++rel) {
    for (const Tuple& t : a.Tuples(rel)) {
      Tuple image;
      image.reserve(t.size());
      for (int e : t) image.push_back(h[static_cast<size_t>(e)]);
      if (!b.HasTuple(rel, image)) return false;
    }
  }
  return true;
}

bool AreHomEquivalent(const Structure& a, const Structure& b) {
  return HasHomomorphism(a, b) && HasHomomorphism(b, a);
}

uint64_t CountHomomorphisms(const Structure& a, const Structure& b,
                            uint64_t limit, const EngineConfig& config) {
  Budget unlimited = Budget::Unlimited();
  return CountHomomorphismsBudgeted(a, b, unlimited, limit, config).Value();
}

Outcome<uint64_t> CountHomomorphismsBudgeted(const Structure& a,
                                             const Structure& b,
                                             Budget& budget, uint64_t limit,
                                             const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kCount;
  problem.limit = limit;
  auto out = Engine::Execute(CompatPlan(problem, config), budget);
  if (!out.IsDone()) return Outcome<uint64_t>::StoppedShort(out.Report());
  return Outcome<uint64_t>::Done(out.Value().count, out.Report());
}

void EnumerateHomomorphisms(
    const Structure& a, const Structure& b,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config) {
  Budget unlimited = Budget::Unlimited();
  EnumerateHomomorphismsBudgeted(a, b, unlimited, callback, config);
}

Outcome<bool> EnumerateHomomorphismsBudgeted(
    const Structure& a, const Structure& b, Budget& budget,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config) {
  HomProblem problem;
  problem.source = &a;
  problem.target = &b;
  problem.mode = HomQueryMode::kEnumerate;
  problem.callback = callback;
  auto out = Engine::Execute(CompatPlan(problem, config), budget);
  if (!out.IsDone()) return Outcome<bool>::StoppedShort(out.Report());
  return Outcome<bool>::Done(out.Value().enumeration_completed, out.Report());
}

}  // namespace hompres
