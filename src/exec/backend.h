#ifndef LEARNEDSQLGEN_EXEC_BACKEND_H_
#define LEARNEDSQLGEN_EXEC_BACKEND_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace lsg {

/// Cumulative operator work observed during execution; feeds the
/// "true cost" variant of the cost model (feedback ablation).
struct ExecStats {
  /// Saturation ceiling for every counter, mirroring the estimator's
  /// CardinalityEstimator::kMaxJoinRows cap: a pathological join chain
  /// must degrade to a pinned maximum, not run the meters to inf.
  static constexpr double kMaxRows = 1e15;

  double rows_scanned = 0;
  double rows_joined = 0;   ///< tuples produced by joins
  double rows_probed = 0;   ///< tuples driving hash-probe work per join stage
  double rows_output = 0;

  static double Clamp(double v) { return v > kMaxRows ? kMaxRows : v; }

  void Add(const ExecStats& o) {
    rows_scanned = Clamp(rows_scanned + o.rows_scanned);
    rows_joined = Clamp(rows_joined + o.rows_joined);
    rows_probed = Clamp(rows_probed + o.rows_probed);
    rows_output = Clamp(rows_output + o.rows_output);
  }
};

/// Result of executing a SELECT.
struct SelectResult {
  uint64_t cardinality = 0;
  /// Values of the first projection item per output row; filled only when
  /// requested (used to evaluate IN / scalar subqueries).
  std::vector<Value> first_column;
  ExecStats stats;
};

/// Selects an engine for vexec::MakeBackend. Test and benchmark use only:
/// production code constructs vexec::VectorizedEngine directly, and the
/// switch exists so the goodput benchmark's engine cross-check can build
/// both engines by name.
enum class ExecutionBackendKind {
  /// The tuple-at-a-time Executor (src/exec/executor.*): the permanent
  /// differential oracle of the vectorized engine.
  kReference = 0,
  /// The columnar batch engine (src/vexec/), the one production engine.
  kVectorized = 1,
};

/// Query-execution surface shared by the vectorized engine and its oracle,
/// the reference Executor. Test and benchmark use only: it lets one
/// differential check drive either engine through the same calls. All
/// methods are const; one instance answers one query at a time, and
/// distinct instances may run concurrently.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// True result cardinality of any query type. For DML the cardinality
  /// is the number of affected rows (dry run — no mutation). Join blowup
  /// past the intermediate-tuple cap returns OutOfRange.
  virtual StatusOr<uint64_t> Cardinality(const QueryAst& ast) const = 0;

  /// Executes a SELECT; optionally materializes the first projection
  /// column (used by IN / scalar subqueries and the tests).
  virtual StatusOr<SelectResult> ExecuteSelect(
      const SelectQuery& q, bool materialize_first_column) const = 0;

  /// Evaluates a single-table WHERE against every row of `table_idx`,
  /// returning one bool per row (true = row matches). Used to apply
  /// UPDATE/DELETE for real and by the fuzzing oracles.
  virtual StatusOr<std::vector<bool>> MatchRows(
      int table_idx, const WhereClause& where) const = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_EXEC_BACKEND_H_
