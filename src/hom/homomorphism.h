// Homomorphisms between finite relational structures (Section 2.1).
//
// Deciding whether a homomorphism A -> B exists is the constraint
// satisfaction problem in the Feder-Vardi sense: elements of A are
// variables, elements of B are values, and every tuple of A is a table
// constraint requiring its image to be a tuple of B. The solver runs
// generalized arc consistency (AC-3 over tuple constraints) inside a
// smallest-domain-first backtracking search; a plain backtracking baseline
// is provided for the engine benchmarks (E14).
//
// Every search entry point has a budgeted form taking a Budget& and
// returning an Outcome (one step = one search node): Done carries the
// exact answer, Exhausted/Cancelled mean the search stopped short and the
// answer is unknown. The unbudgeted signatures are thin wrappers passing
// Budget::Unlimited().

#ifndef HOMPRES_HOM_HOMOMORPHISM_H_
#define HOMPRES_HOM_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "base/outcome.h"
#include "engine/config.h"
#include "structure/structure.h"

namespace hompres {

// Every entry point takes an EngineConfig (engine/config.h) and plans
// in compatibility mode (engine/plan.h): incompatible settings, such as
// factorize together with forced pairs, are normalized away rather than
// rejected. Engine::Execute (engine/engine.h) is the strict-planning
// alternative.

// Returns a homomorphism from a to b as an element map, or nullopt.
// Vocabularies must agree.
std::optional<std::vector<int>> FindHomomorphism(
    const Structure& a, const Structure& b, const EngineConfig& config = {});

// Budgeted search. Done(witness) / Done(nullopt = certainly none) /
// Exhausted / Cancelled. A witness found just as the budget runs out is
// still reported as Done.
Outcome<std::optional<std::vector<int>>> FindHomomorphismBudgeted(
    const Structure& a, const Structure& b, Budget& budget,
    const EngineConfig& config = {});

bool HasHomomorphism(const Structure& a, const Structure& b,
                     const EngineConfig& config = {});

Outcome<bool> HasHomomorphismBudgeted(const Structure& a, const Structure& b,
                                      Budget& budget,
                                      const EngineConfig& config = {});

// True iff h maps every tuple of a to a tuple of b (and is total/in-range).
bool VerifyHomomorphism(const Structure& a, const Structure& b,
                        const std::vector<int>& h);

// Homomorphic equivalence: homs in both directions (Section 2.1).
bool AreHomEquivalent(const Structure& a, const Structure& b);

// Counts homomorphisms a -> b, stopping at `limit` (0 = count all).
// Honors config.surjective/forced; config.num_threads > 0 fans the
// disjoint subtree counts out to the parallel engine.
uint64_t CountHomomorphisms(const Structure& a, const Structure& b,
                            uint64_t limit = 0,
                            const EngineConfig& config = {});

// Budgeted count: Done(count) only when the enumeration completed (or hit
// `limit`); a partial count is never reported as an answer.
Outcome<uint64_t> CountHomomorphismsBudgeted(
    const Structure& a, const Structure& b, Budget& budget,
    uint64_t limit = 0, const EngineConfig& config = {});

// Enumerates homomorphisms a -> b; the callback returns false to stop.
// Enumeration is always serial (the callback is not required to be
// thread-safe): config.num_threads is ignored here.
void EnumerateHomomorphisms(
    const Structure& a, const Structure& b,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config = {});

// Budgeted enumeration. Done(true) = exhausted the solution space,
// Done(false) = the callback stopped it; Exhausted/Cancelled = the budget
// stopped it (some homomorphisms may not have been visited).
Outcome<bool> EnumerateHomomorphismsBudgeted(
    const Structure& a, const Structure& b, Budget& budget,
    const std::function<bool(const std::vector<int>&)>& callback,
    const EngineConfig& config = {});

}  // namespace hompres

#endif  // HOMPRES_HOM_HOMOMORPHISM_H_
