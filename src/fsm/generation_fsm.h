#ifndef LEARNEDSQLGEN_FSM_GENERATION_FSM_H_
#define LEARNEDSQLGEN_FSM_GENERATION_FSM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/ast_builder.h"
#include "sql/vocabulary.h"
#include "storage/table.h"

namespace lsg {

/// Generation policy knobs: which grammar branches of Table 1 the FSM opens
/// and structural limits. Limits keep episodes bounded; the paper's FSM is
/// "built on the fly" with branches pruned as the agent commits — ours does
/// exactly that via the AstBuilder's pushdown state.
struct QueryProfile {
  bool allow_select = true;
  bool allow_insert = false;
  bool allow_update = false;
  bool allow_delete = false;

  bool allow_join = true;
  bool allow_aggregate = true;   ///< aggregate select items
  bool allow_group_by = true;    ///< GROUP BY / HAVING branch
  bool allow_nested = true;      ///< scalar / IN subqueries
  bool allow_exists = true;      ///< [NOT] EXISTS subqueries
  bool allow_insert_select = true;
  bool allow_like = true;        ///< LIKE patterns (§5 future work)
  bool allow_order_by = true;    ///< ORDER BY over select-item columns

  /// Steers generation to nested queries (the Figure 11 "NESTED" workload):
  /// top-level predicates may only take subquery right-hand sides, and a
  /// SELECT may not complete until it contains one (except under a tight
  /// token budget, where completion always wins).
  bool require_nested = false;

  int max_joins = 3;             ///< join edges per frame
  int max_predicates = 4;        ///< predicates per WHERE
  int max_select_items = 3;
  int max_nesting_depth = 1;     ///< subquery frames above the outer query

  /// Soft token budget: past it the FSM masks every branch that grows the
  /// query, leaving only the shortest completion path.
  int max_tokens = 64;

  /// Testing backdoors (lsglint --inject-bug): deliberately drop one
  /// semantic rule from the masks so the analyzer/linter pair can be
  /// mutation-tested. Never set outside tests/tools.
  bool inject_agg_type_gap = false;   ///< offer SUM/AVG/... over any column
  bool inject_join_edge_gap = false;  ///< offer JOIN to non-FK tables

  /// True when at least one statement kind is allowed; GenerationFsm
  /// requires it.
  bool OpensAnyStatement() const {
    return allow_select || allow_insert || allow_update || allow_delete;
  }

  /// Plain select-project-join profile (Case 1 of Table 1).
  static QueryProfile SpjOnly();
  /// Everything the grammar supports, including DML.
  static QueryProfile Full();
  /// Only the given DML statement type.
  static QueryProfile InsertOnly();
  static QueryProfile UpdateOnly();
  static QueryProfile DeleteOnly();
};

/// The paper's finite-state machine in the environment (§5): given the
/// current partial query it masks the action space so that every reachable
/// completion is a syntactically and semantically valid SQL query.
///
/// Invariant (tested): in every reachable non-terminal state at least one
/// action is valid, and following any sequence of valid actions terminates
/// within a bounded number of steps.
class GenerationFsm {
 public:
  /// All pointers must outlive the FSM.
  GenerationFsm(const Database* db, const Vocabulary* vocab,
                QueryProfile profile);

  /// Starts a fresh query.
  void Reset();

  /// Mask over the action space: mask[id] != 0 iff token id is valid now.
  /// Recomputed on each call; valid until the next Step()/Reset().
  const std::vector<uint8_t>& ValidActions();

  /// Applies an action (must be valid per ValidActions()).
  Status Step(int action_id);

  /// True once EOF was consumed.
  bool done() const { return builder_.done(); }

  /// True if the current prefix is an executable query (partial reward).
  bool IsExecutablePrefix() const { return builder_.IsExecutablePrefix(); }

  const AstBuilder& builder() const { return builder_; }
  const std::vector<Token>& tokens() const { return builder_.tokens(); }
  QueryAst TakeAst() { return builder_.TakeAst(); }

  const QueryProfile& profile() const { return profile_; }
  const Vocabulary& vocab() const { return *vocab_; }

  /// Number of valid actions in the most recent ValidActions() mask;
  /// maintained only while obs::Enabled() (0 otherwise). Feeds the
  /// per-episode mask-pressure telemetry.
  int last_mask_width() const { return last_mask_width_; }

 private:
  void MaskStart(bool sub);
  void MaskSelectFrame();
  void MaskInsert();
  void MaskUpdate();
  void MaskDelete();

  void Allow(int token_id) { mask_[token_id] = 1; }
  void AllowKeyword(Keyword kw) { mask_[vocab_->keyword_id(kw)] = 1; }

  /// True if the column has at least one sampled value token.
  bool ColumnHasValues(const ColumnRef& col) const;
  /// True once the token budget is exhausted (growth branches masked).
  bool BudgetTight() const;
  /// True once the budget no longer fits a forced subquery completion.
  bool SubqueryTight() const;
  /// Select-item mixing state: 0 none, 1 all plain, 2 all agg, 3 mixed.
  int ItemMix(const SelectQuery& q) const;

  const Database* db_;
  const Vocabulary* vocab_;
  QueryProfile profile_;
  AstBuilder builder_;
  std::vector<uint8_t> mask_;
  int last_mask_width_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FSM_GENERATION_FSM_H_
