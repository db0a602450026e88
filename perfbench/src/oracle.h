// Answer checks. Every answer the benchmark receives is reduced to a
// digest during the measured phase; after it, the digests are compared
// with answers recomputed without any cache (cache-off Engine::Execute,
// unoptimized UnionOfCq::Evaluate, from-scratch EvaluateSemiNaive).

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/preservation.h"
#include "gen.h"
#include "server/json.h"
#include "structure/structure.h"

namespace perfbench {

// Why a response counts as a failed op: "ok": false, an outcome other
// than "done", a recorded degradation, or a truncated answer list.
// Empty when the response is a clean success.
std::string ResponseFailure(const hompres::JsonValue& response);

// Digest of the answer field a response to `kind` carries (count, has,
// satisfied, or the sorted answer tuples); nullopt when it is missing.
std::optional<uint64_t> AnswerDigest(const hompres::JsonValue& response,
                                     OpKind kind);

// Parses a generated structure text over {E/2}; the generators only
// emit parseable texts, so a failure aborts.
hompres::Structure ParseGenerated(const std::string& text);

// The digest of op's answer on `targets`, computed without caches.
uint64_t ExpectedDigest(const ServeOp& op,
                        const std::vector<hompres::Structure>& targets);

// The digest of hom_count(source -> target), computed without caches.
uint64_t ExpectedHomCountDigest(const std::string& source,
                                const hompres::Structure& target);

// Compares a view_tuples response listing every tuple with a
// from-scratch semi-naive evaluation of `program` on `base`. Empty when
// they agree.
std::string CheckViewAgainstScratch(const hompres::JsonValue& response,
                                    const std::string& program,
                                    const hompres::Structure& base);

// Checks one pipeline result: an existential-positive sentence
// verifies and its UCQ agrees with the sentence's own UCQ (equivalent
// on classes holding every structure of at most three elements,
// contained in it on treewidth<2); a negative control does not verify.
// Empty when the result passes.
std::string CheckPipelineResult(const Sentence& sentence,
                                const hompres::FormulaPtr& formula,
                                const hompres::PreservationResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
