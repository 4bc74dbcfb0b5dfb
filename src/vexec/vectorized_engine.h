#ifndef LEARNEDSQLGEN_VEXEC_VECTORIZED_ENGINE_H_
#define LEARNEDSQLGEN_VEXEC_VECTORIZED_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/backend.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "vexec/batch.h"
#include "vexec/morsel_pool.h"

namespace lsg {
namespace vexec {

/// Deliberately-planted defects for oracle mutation testing (lsgfuzz
/// --inject-bug ...): each models a realistic vectorized-engine bug class
/// that the lockstep differential oracle must catch.
enum class InjectBug {
  kNone,
  /// Join probe trusts the hash slot without rechecking the key: the first
  /// occupied slot on the open-addressing probe path matches any key.
  kHashCollision,
  /// The selection-vector build drops the last tuple of every batch
  /// (full or partial) — the classic off-by-one in a `<` vs `<=` bound.
  kSelVectorOffByOne,
};

struct VexecOptions {
  /// Morsel parallelism including the calling thread; 1 = fully serial.
  /// Production environments run the serial default; vexec_test and
  /// bench_vexec_throughput exercise larger crews, and multi-core morsels
  /// in production are a deferred ROADMAP item.
  int workers = 1;
  /// Join blowup bound; must match the reference Executor's for bitwise
  /// OutOfRange agreement.
  uint64_t max_intermediate_tuples = 1ull << 24;
  InjectBug inject = InjectBug::kNone;
};

/// Columnar batch execution engine, and the one engine production code
/// constructs (SqlGenEnvironment owns one for true-execution feedback).
/// Same query surface and — by construction — bitwise-identical results
/// (cardinality, first_column, ExecStats) as the reference Executor, at
/// vectorized speed:
///
///   * scans and predicate evaluation run as typed kernels over the
///     Column backing arrays in kBatchSize batches (no per-row Value
///     materialization on the hot paths);
///   * FK hash joins use an open-addressing INT64 table (SplitMix64) when
///     both key columns are INT64 — every FK edge in the bundled datasets
///     — and fall back to the reference engine's exact
///     unordered_map<Value, ...> build otherwise;
///   * batches are dispatched to a MorselPool, each worker writing a
///     disjoint output chunk; chunks are concatenated in morsel order so
///     tuple order (and therefore every order-sensitive double
///     accumulation downstream) matches the reference engine exactly.
///
/// The sequential tail (GROUP BY / HAVING / aggregate collapse) reuses the
/// shared AggregateValues/GroupKeyOf helpers, running over the small
/// post-filter tuple set. The Executor stays the permanent correctness
/// oracle: tests/vexec_test.cc sweeps both engines differentially over
/// every bundled dataset and `lsgfuzz --oracle vexec` cross-checks every
/// fuzz episode.
///
/// One instance answers one query at a time (the ExecutionBackend
/// contract); distinct instances are independent.
class VectorizedEngine final : public ExecutionBackend {
 public:
  explicit VectorizedEngine(const Database* db, VexecOptions opts = {});

  StatusOr<uint64_t> Cardinality(const QueryAst& ast) const override;
  StatusOr<SelectResult> ExecuteSelect(
      const SelectQuery& q, bool materialize_first_column) const override;
  StatusOr<std::vector<bool>> MatchRows(
      int table_idx, const WhereClause& where) const override;

  const VexecOptions& options() const { return opts_; }

 private:
  StatusOr<TupleSetV> BuildJoin(const SelectQuery& q, ExecStats* stats) const;
  Status ApplyWhere(const WhereClause& where, TupleSetV* ts,
                    ExecStats* stats) const;
  /// Evaluates one predicate over all tuples into a byte mask.
  Status EvalPredicate(const Predicate& p, const TupleSetV& ts, Mask* out,
                       ExecStats* stats) const;
  /// Typed compare kernel: column `col` of the table at chain position
  /// `pos` against a constant, over tuple range [begin, end).
  void CompareKernel(const TupleSetV& ts, size_t pos, int column_idx,
                     CompareOp op, const Value& constant, size_t begin,
                     size_t end, Mask* out) const;
  Value TupleValue(const TupleSetV& ts, size_t tuple,
                   const ColumnRef& col) const;

  const Database* db_;
  VexecOptions opts_;
  /// Morsel dispatcher; scheduling state only, no query state, so issuing
  /// jobs from const query methods is safe (one query at a time).
  mutable MorselPool pool_;
};

/// Parses an --inject-bug name ("hash-collision", "sel-vector-off-by-one")
/// into the enum; returns kNone for anything else.
InjectBug ParseInjectBug(const std::string& name);

}  // namespace vexec
}  // namespace lsg

#endif  // LEARNEDSQLGEN_VEXEC_VECTORIZED_ENGINE_H_
