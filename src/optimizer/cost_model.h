#ifndef LEARNEDSQLGEN_OPTIMIZER_COST_MODEL_H_
#define LEARNEDSQLGEN_OPTIMIZER_COST_MODEL_H_

#include "exec/backend.h"
#include "optimizer/cardinality_estimator.h"

namespace lsg {

/// PostgreSQL-style cost constants (defaults mirror postgresql.conf).
struct CostConstants {
  double seq_page_cost = 1.0;
  double cpu_tuple_cost = 0.01;
  double cpu_operator_cost = 0.0025;
  double hash_build_cost_per_row = 0.015;
  double hash_probe_cost_per_row = 0.01;
  double group_cost_per_row = 0.02;
  double dml_write_cost_per_row = 1.0;
  double rows_per_page = 80.0;  ///< ~100B rows in 8KB pages
};

/// Optimizer cost model: plugs estimated (or measured) per-stage row counts
/// into scan/join/aggregate formulas. This is the "cost" metric of the
/// paper's constraints ("we can also allow users to specify the latency as
/// a constraint, but it is sensitive to the hardware environment, so we use
/// cost instead — like optimizers also use cost", §2.1 Remark 3).
class CostModel {
 public:
  explicit CostModel(const CardinalityEstimator* estimator,
                     CostConstants constants = CostConstants());

  /// Estimated execution cost of any query type.
  double EstimateCost(const QueryAst& ast) const;

  /// Cost of a SELECT from its estimate detail.
  double SelectCost(const SelectQuery& q) const;

  /// "True" cost: the same formulas applied to measured operator
  /// cardinalities from an actual execution (feedback ablation).
  double TrueCost(const ExecStats& stats, double output_rows) const;

  /// Cost formulas over an already-computed estimate breakdown. Public so
  /// the incremental PrefixEstimator can price a prefix from its running
  /// detail without re-walking the AST; `SelectCost` is this applied to a
  /// fresh full estimate.
  double CostFromDetail(const EstimateDetail& d, int num_predicates,
                        int num_joins, bool has_group, bool has_order) const;

  const CostConstants& constants() const { return constants_; }

 private:
  const CardinalityEstimator* estimator_;
  CostConstants constants_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_OPTIMIZER_COST_MODEL_H_
