// The unified execution engine for homomorphism-shaped queries.
//
// Engine::Execute is the single runner behind every mode: it consults
// the result cache, factors through Gaifman components, dispatches to
// the parallel subtree driver or the serial kernel, charges the budget,
// and synthesizes the stop reason — logic that previously lived
// duplicated across the per-mode entry points. Callers build a
// HomProblem, plan it (engine/plan.h), and execute the plan; the
// Has/Find/Count/Enumerate/Project statics wrap that sequence for the common
// case (strict planning, default-constructed or caller-valid config —
// an invalid config is a programming error there and fails hard).
//
// The hom/homomorphism.h free functions take the same EngineConfig and
// run this engine, planning in compatibility mode.

#ifndef HOMPRES_ENGINE_ENGINE_H_
#define HOMPRES_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "engine/config.h"
#include "engine/plan.h"
#include "engine/problem.h"

namespace hompres {

// The mode-polymorphic result of Execute. Which fields are meaningful
// depends on the plan's query mode:
//   kHas        -> has
//   kFind       -> witness (nullopt = certain "no"); has mirrors it
//   kCount      -> count
//   kEnumerate,
//   kProject    -> enumeration_completed (false = the callback stopped)
struct HomResult {
  std::optional<std::vector<int>> witness;
  bool has = false;
  uint64_t count = 0;
  bool enumeration_completed = false;
};

// What actually happened during one Execute call, for --explain and the
// engine tests. Distinct from the plan: the plan is the decision, the
// trace is the event log.
struct ExecutionTrace {
  bool cache_consulted = false;
  bool cache_hit = false;
  bool cache_stored = false;
  uint64_t steps_charged = 0;  // budget steps used by this call
  // Fallbacks taken during this call (mirrors plan.degradations; see
  // the degradation ladder in engine.cc and DESIGN.md §4.6).
  std::vector<DegradationEvent> degradations;
  std::string ToString() const;
};

class Engine {
 public:
  // Runs the plan against `budget`. StoppedShort when the budget ran out
  // before the answer was certain (a witness found as the budget expired
  // still completes, matching the budget contract of the kernels).
  static Outcome<HomResult> Execute(const HomPlan& plan, Budget& budget,
                                    ExecutionTrace* trace = nullptr);

  // Convenience wrappers: build the problem, plan strictly (an invalid
  // config fails hard — migrated call sites pass valid configs), and
  // execute. The unbudgeted pattern is `Budget unlimited =
  // Budget::Unlimited()` plus `.Value()`.
  static Outcome<bool> Has(const Structure& a, const Structure& b,
                           Budget& budget, const EngineConfig& config = {});
  static Outcome<std::optional<std::vector<int>>> Find(
      const Structure& a, const Structure& b, Budget& budget,
      const EngineConfig& config = {});
  static Outcome<uint64_t> Count(const Structure& a, const Structure& b,
                                 Budget& budget, uint64_t limit,
                                 const EngineConfig& config = {});
  static Outcome<bool> Enumerate(
      const Structure& a, const Structure& b, Budget& budget,
      const std::function<bool(const std::vector<int>&)>& callback,
      const EngineConfig& config = {});
  // Visits each distinct tuple of images of `free` that extends to a
  // homomorphism a -> b, once, in search order (not sorted).
  static Outcome<bool> Project(
      const Structure& a, const Structure& b, Budget& budget,
      const std::vector<int>& free,
      const std::function<bool(const std::vector<int>&)>& callback,
      const EngineConfig& config = {});
};

}  // namespace hompres

#endif  // HOMPRES_ENGINE_ENGINE_H_
