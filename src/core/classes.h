// Classes of finite structures (the C of the paper's theorems).
//
// A StructureClass is a named membership predicate plus the closure
// properties the theorems assume. The stock classes are the ones the
// paper proves preservation for: bounded degree (Theorem 3.5), bounded
// treewidth (Theorem 4.4), excluded minor (Theorem 5.4), and the
// core-relaxed variants of Section 6 (Theorems 6.5-6.7).

#ifndef HOMPRES_CORE_CLASSES_H_
#define HOMPRES_CORE_CLASSES_H_

#include <functional>
#include <string>
#include <vector>

#include "structure/structure.h"

namespace hompres {

// `contains` must be deterministic and closed under isomorphism: a
// structure isomorphic to a member is a member. The structure space
// (core/structure_space.h) asks it once per isomorphism class and
// applies the answer to the whole class. Every stock class below is
// defined by an isomorphism-invariant quantity (degree, treewidth,
// minors, the core up to isomorphism).
struct StructureClass {
  std::string name;
  std::function<bool(const Structure&)> contains;
};

// The class of all finite structures.
StructureClass AllStructuresClass();

// Gaifman degree <= k.
StructureClass BoundedDegreeClass(int k);

// Treewidth < k (the paper's T(k)). Uses exact treewidth; structures must
// stay small (<= 22 elements).
StructureClass BoundedTreewidthClass(int k);

// Gaifman graph excludes K_h as a minor.
StructureClass ExcludesMinorClass(int h);

// Cores-based classes of Section 6: the predicate is applied to the
// Gaifman graph of core(A).
StructureClass CoresBoundedDegreeClass(int k);
StructureClass CoresBoundedTreewidthClass(int k);  // the paper's H(T(k))
StructureClass CoresExcludeMinorClass(int h);

// Empirical closure checks used by the tests: every one-step substructure
// (tuple or element removal) of each sample stays in the class, and every
// pairwise disjoint union does.
bool CheckClosedUnderSubstructures(const StructureClass& c,
                                   const std::vector<Structure>& samples);
bool CheckClosedUnderDisjointUnions(const StructureClass& c,
                                    const std::vector<Structure>& samples);

}  // namespace hompres

#endif  // HOMPRES_CORE_CLASSES_H_
