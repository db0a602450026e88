// A homomorphism-shaped query, before planning.
//
// Every front end of the library — CQ/UCQ satisfaction and evaluation,
// core retract probes, pointed-structure maps, the pebble game's
// partial-hom family, Datalog-adjacent tooling — bottoms out in one of
// five questions about a pair of structures: does a homomorphism exist
// (kHas), produce one (kFind), how many are there (kCount), visit them
// all (kEnumerate), or which images of some source elements extend to
// one (kProject: a conjunctive query's answers, by Chandra–Merlin).
// HomProblem is that question as a value; pair it
// with an EngineConfig and pass both to PlanHomQuery (engine/plan.h) to
// obtain an executable HomPlan.
//
// The structures are referenced, not owned: a HomProblem (and any plan
// built from it) is valid only while the source and target outlive it
// and are not mutated.

#ifndef HOMPRES_ENGINE_PROBLEM_H_
#define HOMPRES_ENGINE_PROBLEM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "structure/structure.h"

namespace hompres {

enum class HomQueryMode {
  kHas,        // does a homomorphism source -> target exist?
  kFind,       // produce a witness (or a certain "none")
  kCount,      // exact count, optionally stopping at `limit`
  kEnumerate,  // visit every homomorphism through `callback`
  kProject,    // visit each distinct image of `free` through `callback`
};

// Stable lowercase name ("has", "find", "count", "enumerate",
// "project").
const char* HomQueryModeName(HomQueryMode mode);

struct HomProblem {
  const Structure* source = nullptr;
  const Structure* target = nullptr;
  HomQueryMode mode = HomQueryMode::kFind;

  // kCount: stop once this many homomorphisms have been seen (0 = count
  // all). Meaningless for the other modes (strict planning rejects it).
  uint64_t limit = 0;

  // kEnumerate: invoked for every homomorphism found; kProject: invoked
  // once per distinct answer tuple. Return false to stop. Required for
  // both, ignored otherwise.
  std::function<bool(const std::vector<int>&)> callback;

  // kProject: the source elements whose images form an answer tuple, in
  // output order (repeats allowed). Each must lie in the source universe.
  // Ignored by the other modes.
  std::vector<int> free;
};

}  // namespace hompres

#endif  // HOMPRES_ENGINE_PROBLEM_H_
