#include "opt/canonical.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "base/hash.h"
#include "base/sharded_lru.h"

namespace hompres {

CqSignature SignatureOf(const ConjunctiveQuery& q) {
  const Structure& canonical = q.Canonical();
  CqSignature sig;
  sig.arity = q.Arity();
  sig.variables = canonical.UniverseSize();
  const int num_relations = canonical.GetVocabulary().NumRelations();
  sig.tuples_per_relation.resize(static_cast<size_t>(num_relations));
  for (int rel = 0; rel < num_relations; ++rel) {
    const int count = static_cast<int>(canonical.Tuples(rel).size());
    sig.tuples_per_relation[static_cast<size_t>(rel)] = count;
    sig.atoms += count;
  }
  return sig;
}

bool MayBeContainedIn(const CqSignature& sub, const CqSignature& sup) {
  if (sub.arity != sup.arity) return false;
  // canonical(sup) -> canonical(sub) needs a nonempty codomain for a
  // nonempty domain. (Free variables are pinned pointwise, so with
  // arity > 0 both universes are nonempty and this is vacuous.)
  if (sup.variables > 0 && sub.variables == 0) return false;
  // Every atom of sup must land on an atom of the same relation in sub.
  // Counts give no further condition (a homomorphism may collapse
  // atoms), only the support does.
  const size_t relations =
      std::min(sub.tuples_per_relation.size(), sup.tuples_per_relation.size());
  for (size_t rel = 0; rel < relations; ++rel) {
    if (sup.tuples_per_relation[rel] > 0 && sub.tuples_per_relation[rel] == 0) {
      return false;
    }
  }
  for (size_t rel = relations; rel < sup.tuples_per_relation.size(); ++rel) {
    if (sup.tuples_per_relation[rel] > 0) return false;
  }
  return true;
}

namespace {

// Digest of a sequence of words, chained order-sensitively.
uint64_t Chain(uint64_t seed, const std::vector<uint64_t>& words) {
  uint64_t h = seed;
  for (uint64_t w : words) h = Mix64(h ^ w);
  return h;
}

// Renaming-invariant element colors by iterated refinement: the initial
// color encodes the element's free-position profile; each round folds in
// a sorted multiset of atom-occurrence tokens built from the previous
// round's colors. Stops when the number of distinct colors stops
// growing (refinement is monotone in the induced partition).
std::vector<uint64_t> RefineColors(const Structure& canonical,
                                   const std::vector<int>& free_elements) {
  const int n = canonical.UniverseSize();
  std::vector<uint64_t> colors(static_cast<size_t>(n),
                               Mix64(0xB0D5ULL));  // bound-variable seed
  for (size_t pos = 0; pos < free_elements.size(); ++pos) {
    uint64_t& c = colors[static_cast<size_t>(free_elements[pos])];
    c = Mix64(c ^ Mix64(pos + 1));
  }
  const int num_relations = canonical.GetVocabulary().NumRelations();
  size_t distinct = 0;
  for (int round = 0; round < n; ++round) {
    std::vector<std::vector<uint64_t>> tokens(static_cast<size_t>(n));
    for (int rel = 0; rel < num_relations; ++rel) {
      for (const Tuple& t : canonical.Tuples(rel)) {
        // One shared digest of the atom under the current coloring...
        uint64_t atom = Mix64(static_cast<uint64_t>(rel) + 1);
        for (int e : t) atom = Mix64(atom ^ colors[static_cast<size_t>(e)]);
        // ...specialized per occurrence position for each participant.
        for (size_t i = 0; i < t.size(); ++i) {
          tokens[static_cast<size_t>(t[i])].push_back(Mix64(atom ^ (i + 1)));
        }
      }
    }
    std::vector<uint64_t> next(static_cast<size_t>(n));
    for (int e = 0; e < n; ++e) {
      std::vector<uint64_t>& mine = tokens[static_cast<size_t>(e)];
      std::sort(mine.begin(), mine.end());
      next[static_cast<size_t>(e)] = Chain(colors[static_cast<size_t>(e)], mine);
    }
    std::vector<uint64_t> sorted = next;
    std::sort(sorted.begin(), sorted.end());
    const size_t now =
        static_cast<size_t>(std::unique(sorted.begin(), sorted.end()) -
                            sorted.begin());
    colors = std::move(next);
    if (now == distinct) break;  // partition stable
    distinct = now;
  }
  return colors;
}

// The certificate of one complete relabeling old_to_new: the relabeled
// tuple lists (sorted within each relation) followed by the relabeled
// free list. Lexicographic comparison of certificates picks the
// canonical ordering among candidates.
std::vector<int> CertificateOf(const Structure& canonical,
                               const std::vector<int>& free_elements,
                               const std::vector<int>& old_to_new) {
  std::vector<int> cert;
  const int num_relations = canonical.GetVocabulary().NumRelations();
  for (int rel = 0; rel < num_relations; ++rel) {
    std::vector<Tuple> relabeled;
    relabeled.reserve(canonical.Tuples(rel).size());
    for (const Tuple& t : canonical.Tuples(rel)) {
      Tuple image;
      image.reserve(t.size());
      for (int e : t) image.push_back(old_to_new[static_cast<size_t>(e)]);
      relabeled.push_back(std::move(image));
    }
    std::sort(relabeled.begin(), relabeled.end());
    cert.push_back(static_cast<int>(relabeled.size()));
    for (const Tuple& t : relabeled) {
      cert.insert(cert.end(), t.begin(), t.end());
    }
  }
  for (int f : free_elements) {
    cert.push_back(old_to_new[static_cast<size_t>(f)]);
  }
  return cert;
}

// Enumerates every ordering that sorts elements by color rank and
// permutes freely within tied classes, keeping the one with the
// lexicographically smallest certificate. `classes` holds the tied
// element groups in color order.
struct TieSearch {
  const Structure& canonical;
  const std::vector<int>& free_elements;
  std::vector<std::vector<int>> classes;

  std::vector<int> best_cert;
  std::vector<int> best_order;  // new id -> old element

  void Run() {
    std::vector<int> order;
    order.reserve(static_cast<size_t>(canonical.UniverseSize()));
    Descend(0, order);
  }

  void Descend(size_t class_index, std::vector<int>& order) {
    if (class_index == classes.size()) {
      std::vector<int> old_to_new(
          static_cast<size_t>(canonical.UniverseSize()));
      for (size_t i = 0; i < order.size(); ++i) {
        old_to_new[static_cast<size_t>(order[i])] = static_cast<int>(i);
      }
      std::vector<int> cert =
          CertificateOf(canonical, free_elements, old_to_new);
      if (best_cert.empty() || cert < best_cert) {
        best_cert = std::move(cert);
        best_order = order;
      }
      return;
    }
    std::vector<int> members = classes[class_index];
    std::sort(members.begin(), members.end());
    do {
      const size_t mark = order.size();
      order.insert(order.end(), members.begin(), members.end());
      Descend(class_index + 1, order);
      order.resize(mark);
    } while (std::next_permutation(members.begin(), members.end()));
  }
};

uint64_t FactorialCapped(size_t k) {
  uint64_t f = 1;
  for (size_t i = 2; i <= k; ++i) {
    f *= i;
    if (f > kMaxTieOrderings) return kMaxTieOrderings + 1;
  }
  return f;
}

}  // namespace

CanonicalCq CanonicalForm(const ConjunctiveQuery& q) {
  const Structure& canonical = q.Canonical();
  const int n = canonical.UniverseSize();
  const std::vector<uint64_t> colors = RefineColors(q.Canonical(),
                                                    q.FreeElements());

  // Group elements into color classes, ordered by color value (colors
  // are renaming-invariant, so this order is too).
  std::vector<int> by_color(static_cast<size_t>(n));
  for (int e = 0; e < n; ++e) by_color[static_cast<size_t>(e)] = e;
  std::stable_sort(by_color.begin(), by_color.end(), [&](int a, int b) {
    return colors[static_cast<size_t>(a)] < colors[static_cast<size_t>(b)];
  });
  std::vector<std::vector<int>> classes;
  for (int e : by_color) {
    if (classes.empty() ||
        colors[static_cast<size_t>(classes.back().back())] !=
            colors[static_cast<size_t>(e)]) {
      classes.emplace_back();
    }
    classes.back().push_back(e);
  }

  uint64_t orderings = 1;
  for (const std::vector<int>& cls : classes) {
    orderings *= FactorialCapped(cls.size());
    if (orderings > kMaxTieOrderings) break;
  }

  std::vector<int> order;  // new id -> old element
  bool exact = true;
  if (orderings <= kMaxTieOrderings) {
    TieSearch search{canonical, q.FreeElements(), std::move(classes), {}, {}};
    search.Run();
    order = std::move(search.best_order);
  } else {
    // Deterministic fallback: color rank, then original id. Sound but
    // renaming-sensitive; see the header comment.
    order = by_color;
    exact = false;
  }

  std::vector<int> old_to_new(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) {
    old_to_new[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }

  Structure relabeled(canonical.GetVocabulary(), n);
  const int num_relations = canonical.GetVocabulary().NumRelations();
  for (int rel = 0; rel < num_relations; ++rel) {
    for (const Tuple& t : canonical.Tuples(rel)) {
      Tuple image;
      image.reserve(t.size());
      for (int e : t) image.push_back(old_to_new[static_cast<size_t>(e)]);
      relabeled.AddTuple(rel, image);
    }
  }
  std::vector<int> free_elements;
  free_elements.reserve(q.FreeElements().size());
  for (int f : q.FreeElements()) {
    free_elements.push_back(old_to_new[static_cast<size_t>(f)]);
  }

  // Fingerprint of the relabeled value, Structure::Fingerprint-style:
  // arities, universe size, every tuple entry in sorted relation order,
  // then the free list, under a CQ domain-separation seed.
  uint64_t h = Mix64(0xC0FEULL);
  h = Mix64(h ^ static_cast<uint64_t>(num_relations));
  for (int rel = 0; rel < num_relations; ++rel) {
    h = Mix64(h ^ static_cast<uint64_t>(
                      canonical.GetVocabulary().Arity(rel)));
  }
  h = Mix64(h ^ static_cast<uint64_t>(n));
  for (int rel = 0; rel < num_relations; ++rel) {
    for (const Tuple& t : relabeled.Tuples(rel)) {
      h = Mix64(h ^ (static_cast<uint64_t>(rel) + 1));
      for (int e : t) {
        h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(e)));
      }
    }
  }
  h = Mix64(h ^ static_cast<uint64_t>(free_elements.size()));
  for (int f : free_elements) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(f)));
  }
  if (h == 0) h = 1;  // reserve 0 for "not computed", as Structure does

  CanonicalCq result{
      ConjunctiveQuery(std::move(relabeled), std::move(free_elements)), h,
      exact};
  return result;
}

namespace {

// Memo for CqFingerprint, keyed by a digest of the query as written
// (the labeled Structure::Fingerprint() plus the free list). Queries
// are immutable and canonicalization is deterministic, so an entry can
// never go stale; a 64-bit key collision returns the colliding query's
// fingerprint — the same ~2^-64 soundness class as the hom cache and
// the containment-verdict cache, both of which key by
// Structure::Fingerprint() already. The optimizer re-fingerprints the
// same disjuncts on every pass over a recurring union (preservation
// retries, hompresd batches), which is exactly the hit profile a small
// LRU serves: 16 shards x 256 entries.
ShardedLru<uint64_t, uint64_t>& Memo() {
  static auto* memo = new ShardedLru<uint64_t, uint64_t>(16, 256);
  return *memo;
}

uint64_t MemoKey(const ConjunctiveQuery& q) {
  uint64_t h = Mix64(0xFACEULL ^ q.Canonical().Fingerprint());
  h = Mix64(h ^ q.FreeElements().size());
  for (int f : q.FreeElements()) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(f)));
  }
  return h;
}

}  // namespace

uint64_t CqFingerprint(const ConjunctiveQuery& q) {
  const uint64_t key = MemoKey(q);
  if (auto hit = Memo().Lookup(key)) return *hit;
  const uint64_t fingerprint = CanonicalForm(q).fingerprint;
  Memo().Insert(key, fingerprint);
  return fingerprint;
}

uint64_t CombineUcqFingerprint(std::vector<uint64_t> disjunct_fps, int arity) {
  std::sort(disjunct_fps.begin(), disjunct_fps.end());
  uint64_t h = Mix64(0xD15CULL ^ static_cast<uint64_t>(
                                     static_cast<uint32_t>(arity)));
  h = Mix64(h ^ disjunct_fps.size());
  for (uint64_t fp : disjunct_fps) h = Mix64(h ^ fp);
  if (h == 0) h = 1;
  return h;
}

}  // namespace hompres
