#include "engine/ordering.h"

#include <algorithm>

#include "structure/relation_index.h"

namespace hompres {

namespace {

// Maximum number of subtree tasks a split may produce: enough to load a
// work-stealing pool several times over (stealing evens out subtree-size
// skew) without drowning in per-task setup.
constexpr size_t kMaxSplitTasks = 512;

}  // namespace

std::vector<int> OccurrenceOrderedCandidates(
    const Structure& a, const std::vector<std::pair<int, int>>& forced) {
  const int n = a.UniverseSize();
  // Occurrence counts come from the cached index (one hoisted pass
  // instead of a rescan per planning call).
  const std::vector<int>& occurrences = a.Index().ElementOccurrences();
  std::vector<bool> already_forced(static_cast<size_t>(n), false);
  for (const auto& [var, val] : forced) {
    (void)val;
    if (var >= 0 && var < n) already_forced[static_cast<size_t>(var)] = true;
  }
  std::vector<int> candidates;
  for (int v = 0; v < n; ++v) {
    if (!already_forced[static_cast<size_t>(v)] &&
        occurrences[static_cast<size_t>(v)] > 0) {
      candidates.push_back(v);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int x, int y) {
    return occurrences[static_cast<size_t>(x)] >
           occurrences[static_cast<size_t>(y)];
  });
  return candidates;
}

SplitChoice ChooseSplitElements(const Structure& a, const Structure& b,
                                const std::vector<std::pair<int, int>>& forced,
                                int num_threads) {
  SplitChoice choice;
  const int n = a.UniverseSize();
  const int m = b.UniverseSize();
  if (n == 0 || m < 2 || a.NumTuples() == 0) return choice;
  const std::vector<int> candidates = OccurrenceOrderedCandidates(a, forced);
  const size_t target = 2 * static_cast<size_t>(num_threads);
  for (int v : candidates) {
    if (choice.num_tasks >= target || choice.elements.size() >= 3) break;
    if (choice.num_tasks * static_cast<size_t>(m) > kMaxSplitTasks) break;
    choice.elements.push_back(v);
    choice.num_tasks *= static_cast<size_t>(m);
  }
  if (choice.elements.empty()) choice.num_tasks = 1;
  return choice;
}

std::vector<int> GreedyBoundFirstAtomOrder(
    const std::vector<std::vector<int>>& atom_slots, int num_slots,
    const AtomOrderSeed& seed) {
  const size_t n = atom_slots.size();
  std::vector<int> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::vector<bool> bound(static_cast<size_t>(num_slots), false);
  for (int s : seed.bound_slots) bound[static_cast<size_t>(s)] = true;
  const auto take = [&](int atom) {
    used[static_cast<size_t>(atom)] = true;
    order.push_back(atom);
    for (int s : atom_slots[static_cast<size_t>(atom)]) {
      bound[static_cast<size_t>(s)] = true;
    }
  };
  if (seed.first_atom >= 0) take(seed.first_atom);
  while (order.size() < n) {
    int best = -1;
    int best_bound = -1;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      int count = 0;
      for (int s : atom_slots[i]) {
        if (bound[static_cast<size_t>(s)]) ++count;
      }
      // Strict improvement only: ties keep the lowest original index.
      if (count > best_bound) {
        best_bound = count;
        best = static_cast<int>(i);
      }
    }
    take(best);
  }
  return order;
}

}  // namespace hompres
