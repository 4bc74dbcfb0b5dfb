#ifndef LEARNEDSQLGEN_EXEC_EXECUTOR_H_
#define LEARNEDSQLGEN_EXEC_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/backend.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace lsg {

/// Executes SELECT queries against an in-memory Database and returns true
/// result cardinalities. Pipeline: FK hash joins in chain order, then WHERE
/// (uncorrelated subqueries evaluated once), then GROUP BY / HAVING /
/// aggregate collapse. This is the tuple-at-a-time *reference* engine, kept
/// as the permanent differential oracle: production feedback runs on the
/// vectorized engine in src/vexec/, which must match it bitwise
/// (cardinality, first_column, ExecStats) and is tested against it by
/// vexec_test, `lsgfuzz --oracle vexec` and the environment-level check in
/// core_test. Only oracle users (tests, fuzz/, benches, DmlExecutor and
/// vexec::MakeBackend) include this header.
class Executor : public ExecutionBackend {
 public:
  /// `db` must outlive the executor. `max_intermediate_tuples` bounds join
  /// blowup; exceeding it returns OutOfRange.
  explicit Executor(const Database* db,
                    uint64_t max_intermediate_tuples = 1ull << 24);

  /// True result cardinality of any query type. For DML the cardinality is
  /// the number of affected rows (dry run — the database is not mutated).
  StatusOr<uint64_t> Cardinality(const QueryAst& ast) const override;

  /// Executes a SELECT; optionally materializes the first projection column.
  StatusOr<SelectResult> ExecuteSelect(
      const SelectQuery& q, bool materialize_first_column) const override;

  /// Evaluates a single-table WHERE against every row of `table_idx`,
  /// returning one bool per row (true = row matches). Used to apply
  /// UPDATE/DELETE for real and by the fuzzing oracle.
  StatusOr<std::vector<bool>> MatchRows(
      int table_idx, const WhereClause& where) const override;

  const Database* db() const { return db_; }

 private:
  // Joined working set: row-major tuple store, stride = #tables in chain.
  struct TupleSet {
    std::vector<int> tables;        // catalog table indices, chain order
    std::vector<uint32_t> flat;     // size = count * tables.size()
    size_t count = 0;
  };

  StatusOr<TupleSet> BuildJoin(const SelectQuery& q, ExecStats* stats) const;
  Status ApplyWhere(const WhereClause& where, TupleSet* ts,
                    ExecStats* stats) const;

  /// Evaluates one predicate for every tuple into `out`.
  Status EvalPredicate(const Predicate& p, const TupleSet& ts,
                       std::vector<bool>* out, ExecStats* stats) const;

  Value TupleValue(const TupleSet& ts, size_t tuple, const ColumnRef& col) const;

  const Database* db_;
  uint64_t max_intermediate_tuples_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_EXEC_EXECUTOR_H_
