#ifndef LEARNEDSQLGEN_FUZZ_REFERENCE_EVAL_H_
#define LEARNEDSQLGEN_FUZZ_REFERENCE_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace lsg {

/// Naive reference evaluator used as the differential-testing oracle for
/// the optimized Executor (promoted from tests/differential_test.cc so the
/// fuzzer, benches, and tests share one copy). Deliberately mirrors the
/// engine's documented semantics (FK-edge join selection, NULL never
/// matches, uncorrelated subqueries, COUNT skips NULLs) with the simplest
/// possible code: row-at-a-time nested loops, no hashing.
///
/// It is kept next to the Executor oracle on purpose: the Executor and the
/// vectorized engine share exec/expression.cc's AggregateValues and
/// GroupKeyOf, so a bug there would make them agree with each other. This
/// evaluator has its own copies and is the only independent check on
/// aggregation and grouping.
///
/// Evaluation is metered: every inner-loop comparison consumes work, and
/// once `max_work` is exhausted the evaluation returns OutOfRange so the
/// fuzzer can skip pathologically expensive episodes instead of stalling.
class ReferenceEvaluator {
 public:
  /// `db` must outlive the evaluator.
  explicit ReferenceEvaluator(const Database* db,
                              uint64_t max_work = 1ull << 26)
      : db_(db), max_work_(max_work) {}

  struct Result {
    uint64_t cardinality = 0;
    std::vector<Value> first_column;
  };

  /// Evaluates a SELECT by nested loops.
  StatusOr<Result> EvalSelect(const SelectQuery& q) const;

  /// Result cardinality of any query type; for DML this is the predicted
  /// number of affected rows (INSERT VALUES = 1).
  StatusOr<uint64_t> EvalAst(const QueryAst& ast) const;

 private:
  struct Edge {
    size_t probe_chain_pos = 0;
    int probe_col = -1;
    int build_col = -1;
  };

  StatusOr<Result> EvalSelectRec(const SelectQuery& q) const;
  StatusOr<Edge> FindEdge(const std::vector<int>& tables, size_t i) const;
  Value TupleValue(const SelectQuery& q, const std::vector<uint32_t>& tup,
                   const ColumnRef& col) const;
  StatusOr<bool> EvalWhere(const SelectQuery& q, const WhereClause& where,
                           const std::vector<uint32_t>& tup) const;
  StatusOr<bool> EvalPredicate(const SelectQuery& q, const Predicate& p,
                               const std::vector<uint32_t>& tup) const;
  StatusOr<uint64_t> CountMatching(int table_idx,
                                   const WhereClause& where) const;
  Value Aggregate(const SelectQuery& q, const SelectItem& item,
                  const std::vector<std::vector<uint32_t>>& rows) const;
  static Value AggValues(AggFunc agg, const std::vector<Value>& values);
  Status Charge(uint64_t units) const;

  const Database* db_;
  uint64_t max_work_;
  mutable uint64_t work_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_REFERENCE_EVAL_H_
