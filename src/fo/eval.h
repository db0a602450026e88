// First-order evaluation on finite structures, by compiling a formula
// once and running the compiled form on any number of structures.
//
// Compiling is one pass over the AST. It resolves every relation name to
// its id in the vocabulary (checking the arity), turns every variable
// into an integer slot — each quantifier gets a slot of its own, so a
// shadowing quantifier never clobbers the outer binding — and binds the
// free variables once from an Environment. Evaluation then runs on an
// int slot array and one reused tuple buffer: no name lookups, no map
// copies at quantifiers. Evaluate and EvaluateSentence are
// compile-then-run wrappers; callers that evaluate one sentence on many
// structures (the preservation pipelines) compile it once.

#ifndef HOMPRES_FO_EVAL_H_
#define HOMPRES_FO_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "fo/formula.h"
#include "structure/structure.h"

namespace hompres {

// Environment: assignment of elements to (at least the free) variables.
using Environment = std::map<std::string, int>;

// A formula compiled against a vocabulary, its free variables bound from
// an Environment. Standard Tarskian semantics; quantifiers range over the
// universe of the structure it runs on (so on the empty universe ∃ is
// false and ∀ is true). Immutable after construction: Evaluate may run
// concurrently from several threads.
class CompiledSentence {
 public:
  // CHECK-fails if f has a free variable that `env` does not bind (for a
  // sentence, the check IsSentence makes), or an atom whose relation is
  // not in `vocabulary` or is used with the wrong arity.
  CompiledSentence(const FormulaPtr& f, const Vocabulary& vocabulary,
                   const Environment& env = {});

  // Truth value on s. s must be over the compile vocabulary (CHECKed by
  // relation count; relation ids are the compile vocabulary's).
  bool Evaluate(const Structure& s) const;

 private:
  struct Node {
    FormulaKind kind;
    int relation = -1;  // kAtom
    int slot = -1;      // kExists/kForall: the bound variable's slot
    // kAtom/kEqual: the argument slots, arguments_[begin, end).
    int begin = 0;
    int end = 0;
    // kNot/kAnd/kOr/kExists/kForall: the first child; children are
    // chained through `next` (-1 ends the chain).
    int child = -1;
    int next = -1;
  };

  // Variable name -> slot, innermost binding last.
  using Scope = std::vector<std::pair<const std::string*, int>>;

  // Appends f's nodes and returns its node id. `scope` holds the
  // enclosing quantifiers' bindings; `free` the free variables bound so
  // far (one slot per distinct name).
  int Compile(const FormulaPtr& f, const Vocabulary& vocabulary,
              const Environment& env, Scope& scope, Scope& free);
  bool Run(int id, const Structure& s, int* slots, Tuple& buffer) const;

  std::vector<Node> nodes_;
  std::vector<int> arguments_;
  // Initial slot values: the environment's element for a free-variable
  // slot, 0 for a quantifier slot (overwritten before any read).
  std::vector<int> initial_slots_;
  int root_ = -1;
  int num_relations_ = 0;
  int max_arity_ = 0;
};

// Standard Tarskian semantics; quantifiers range over the universe.
// CHECK-fails if a free variable is missing from env or a relation is not
// in the vocabulary / used with the wrong arity (anywhere in f, whether
// or not evaluation would reach it).
bool Evaluate(const Structure& s, const FormulaPtr& f,
              const Environment& env);

// Evaluation of a sentence (CHECK: no free variables).
bool EvaluateSentence(const Structure& s, const FormulaPtr& f);

// Non-aborting pre-check for untrusted (e.g. parsed) formulas: true iff
// every atom names a relation of `vocabulary` with the right arity, so
// Evaluate cannot hit its vocabulary CHECKs. On failure, *error (if
// non-null) names the offending relation.
bool ValidateFormulaForVocabulary(const FormulaPtr& f,
                                  const Vocabulary& vocabulary,
                                  std::string* error = nullptr);

}  // namespace hompres

#endif  // HOMPRES_FO_EVAL_H_
