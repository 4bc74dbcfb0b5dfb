// Static-analysis subsystem tests: the FsmAnalyzer must prove every bundled
// dataset's generation FSM free of dead states, stuck states, and reachable
// semantic-rule violations, and must catch deliberately seeded rule gaps;
// the SqlLinter's rules are unit-tested against hand-built bad ASTs.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "analysis/fsm_analyzer.h"
#include "analysis/sql_linter.h"
#include "common/logging.h"
#include "common/random.h"
#include "fuzz/fuzzer.h"
#include "fuzz/test_databases.h"
#include "fuzz/trace.h"
#include "sql/vocabulary.h"

namespace lsg {
namespace {

Vocabulary TestVocab(const Database& db) {
  VocabularyOptions vo;
  vo.values_per_column = 4;
  auto vocab = Vocabulary::Build(db, vo);
  LSG_CHECK(vocab.ok());
  return std::move(vocab).value();
}

FsmAnalysisReport AnalyzeProfile(const Database& db, const Vocabulary& vocab,
                                 const QueryProfile& profile,
                                 int budget_tokens = 0) {
  AnalyzerOptions opts;
  opts.profile = profile;
  opts.budget_tokens = budget_tokens;
  FsmAnalyzer analyzer(&db, &vocab, opts);
  auto report = analyzer.Analyze();
  LSG_CHECK(report.ok());
  return std::move(report).value();
}

// ------------------------------------------------- FSM graph verification

TEST(FsmAnalyzerTest, ScoreDatasetCleanUnderEveryProfile) {
  Database db = BuildScoreStudentDb();
  Vocabulary vocab = TestVocab(db);
  for (const FuzzProfile& fp : FuzzProfiles()) {
    FsmAnalysisReport report = AnalyzeProfile(db, vocab, fp.profile);
    EXPECT_TRUE(report.Clean()) << fp.name << "\n" << report.Summary(&vocab);
    EXPECT_GT(report.num_states, 0) << fp.name;
    EXPECT_GT(report.num_accepting_edges, 0) << fp.name;
  }
}

TEST(FsmAnalyzerTest, BundledDatasetsCleanUnderDefaultProfile) {
  for (const std::string& name : {"tpch", "job", "xuetang"}) {
    auto db = BuildNamedDatabase(name, 0.05);
    ASSERT_TRUE(db.ok()) << name;
    Vocabulary vocab = TestVocab(*db);
    FsmAnalysisReport report =
        AnalyzeProfile(*db, vocab, FuzzProfiles()[0].profile);
    EXPECT_TRUE(report.Clean()) << name << "\n" << report.Summary(&vocab);
  }
}

TEST(FsmAnalyzerTest, ScoreCleanUnderTightTokenBudget) {
  // The exact-budget regime explores the tightness-pruning boundary itself;
  // masked completion paths must still reach EOF from every state.
  Database db = BuildScoreStudentDb();
  Vocabulary vocab = TestVocab(db);
  for (const FuzzProfile& fp : FuzzProfiles()) {
    if (fp.name != "full") continue;
    FsmAnalysisReport report =
        AnalyzeProfile(db, vocab, fp.profile, /*budget_tokens=*/16);
    EXPECT_TRUE(report.Clean()) << report.Summary(&vocab);
  }
}

TEST(FsmAnalyzerTest, TokenCoverageAcrossProfileRotation) {
  // Every vocabulary token must be offered somewhere in the rotation: a
  // never-offered token is dead weight in the action space.
  Database db = BuildScoreStudentDb();
  Vocabulary vocab = TestVocab(db);
  std::vector<uint8_t> covered(vocab.size(), 0);
  for (const FuzzProfile& fp : FuzzProfiles()) {
    FsmAnalysisReport report = AnalyzeProfile(db, vocab, fp.profile);
    for (int id = 0; id < static_cast<int>(vocab.size()); ++id) {
      if (report.offered[id] != 0) covered[id] = 1;
    }
  }
  for (int id = 0; id < static_cast<int>(vocab.size()); ++id) {
    EXPECT_NE(covered[id], 0)
        << "token never offered: id=" << id << " "
        << vocab.token(id).text;
  }
}

TEST(FsmAnalyzerTest, ReportSerializesToJson) {
  Database db = BuildScoreStudentDb();
  Vocabulary vocab = TestVocab(db);
  FsmAnalysisReport report =
      AnalyzeProfile(db, vocab, FuzzProfiles()[0].profile);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"states\""), std::string::npos);
  EXPECT_NE(json.find("\"exhausted\":true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":0"), std::string::npos);
}

// ------------------------------------------------------- mutation testing

TEST(FsmAnalyzerTest, DetectsInjectedAggregateTypeGap) {
  Database db = BuildScoreStudentDb();
  Vocabulary vocab = TestVocab(db);
  QueryProfile profile = FuzzProfiles()[0].profile;
  profile.inject_agg_type_gap = true;
  FsmAnalysisReport report = AnalyzeProfile(db, vocab, profile);
  EXPECT_GT(report.num_violations, 0)
      << "analyzer blind to a dropped aggregate-typing rule";
}

TEST(FsmAnalyzerTest, DetectsInjectedJoinEdgeGap) {
  auto db = BuildNamedDatabase("tpch", 0.05);
  ASSERT_TRUE(db.ok());
  Vocabulary vocab = TestVocab(*db);
  QueryProfile profile = FuzzProfiles()[0].profile;
  profile.inject_join_edge_gap = true;
  FsmAnalysisReport report = AnalyzeProfile(*db, vocab, profile);
  EXPECT_GT(report.num_violations, 0)
      << "analyzer blind to a dropped join-edge rule";
}

TEST(SqlLinterTest, DetectsInjectedGapOnRandomWalks) {
  // The linter is the independent half of the differential pair: finished
  // ASTs from a gapped FSM must lint dirty often enough to be caught.
  Database db = BuildScoreStudentDb();
  Vocabulary vocab = TestVocab(db);
  QueryProfile profile = FuzzProfiles()[0].profile;
  profile.inject_agg_type_gap = true;
  SqlLinter linter(&db.catalog());
  Rng rng(20260806);
  int hits = 0;
  for (int ep = 0; ep < 200; ++ep) {
    GenerationFsm fsm(&db, &vocab, profile);
    std::vector<int> actions;
    auto ast = RecordedRandomWalk(&fsm, &rng, &actions);
    if (!ast.ok()) continue;
    if (!linter.Lint(ast.value()).empty()) ++hits;
  }
  EXPECT_GT(hits, 0) << "linter blind to a dropped aggregate-typing rule";
}

// ------------------------------------------------------ lint rule units
//
// Hand-built bad ASTs over the score dataset: Student(ID PK int, Name
// string, Gender categorical) = table 0, Score(SID PK int, ID int, Course
// categorical, Grade double) = table 1, FK Score.ID -> Student.ID.

class LintRulesTest : public ::testing::Test {
 protected:
  LintRulesTest() : db_(BuildScoreStudentDb()), linter_(&db_.catalog()) {}

  static bool HasRule(const std::vector<LintIssue>& issues, LintRule rule) {
    for (const LintIssue& issue : issues) {
      if (issue.rule == rule) return true;
    }
    return false;
  }

  /// Minimal clean SELECT: SELECT Name FROM Student.
  static std::unique_ptr<SelectQuery> CleanSelect() {
    auto q = std::make_unique<SelectQuery>();
    q->tables = {0};
    q->items.push_back({AggFunc::kNone, {0, 1}});
    return q;
  }

  static QueryAst Wrap(std::unique_ptr<SelectQuery> q) {
    QueryAst ast;
    ast.type = QueryType::kSelect;
    ast.select = std::move(q);
    return ast;
  }

  Database db_;
  SqlLinter linter_;
};

TEST_F(LintRulesTest, CleanQueryLintsClean) {
  EXPECT_TRUE(linter_.Lint(Wrap(CleanSelect())).empty());
}

TEST_F(LintRulesTest, EmptyTables) {
  auto q = CleanSelect();
  q->tables.clear();
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kEmptyTables));
}

TEST_F(LintRulesTest, EmptySelectItems) {
  auto q = CleanSelect();
  q->items.clear();
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kEmptySelectItems));
}

TEST_F(LintRulesTest, JoinWithoutForeignKeyEdge) {
  // Student joined to itself: the FK list holds no Student-Student edge.
  ASSERT_FALSE(linter_.HasForeignKeyEdge(0, 0));
  ASSERT_TRUE(linter_.HasForeignKeyEdge(0, 1));
  auto q = CleanSelect();
  q->tables = {0, 0};
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kJoinNotPkFk));
}

TEST_F(LintRulesTest, ColumnOutOfScope) {
  auto q = CleanSelect();
  q->items[0].column = {1, 3};  // Score.Grade, but only Student in scope
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kColumnOutOfScope));
}

TEST_F(LintRulesTest, OperatorTypeMismatch) {
  auto q = CleanSelect();
  Predicate p;
  p.column = {0, 1};  // Name: string, restricted to {=, <, >}
  p.op = CompareOp::kLe;
  p.value = Value("Ada");
  q->where.predicates.push_back(std::move(p));
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kOperatorTypeMismatch));
}

TEST_F(LintRulesTest, AggregateTypeMismatch) {
  auto q = CleanSelect();
  q->items[0] = {AggFunc::kSum, {0, 1}};  // SUM(Name)
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kAggregateTypeMismatch));
}

TEST_F(LintRulesTest, ValueTypeMismatch) {
  auto q = CleanSelect();
  Predicate p;
  p.column = {0, 0};  // ID: int
  p.op = CompareOp::kEq;
  p.value = Value("not a number");
  q->where.predicates.push_back(std::move(p));
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kValueTypeMismatch));
}

TEST_F(LintRulesTest, LikeOnNonStringColumn) {
  auto q = std::make_unique<SelectQuery>();
  q->tables = {1};
  q->items.push_back({AggFunc::kNone, {1, 3}});
  Predicate p;
  p.kind = PredicateKind::kLike;
  p.column = {1, 3};  // Grade: double
  p.value = Value("%x%");
  q->where.predicates.push_back(std::move(p));
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kLikeOnNonString));
}

TEST_F(LintRulesTest, MixedItemsWithoutGroupBy) {
  auto q = CleanSelect();
  q->items.push_back({AggFunc::kCount, {0, 0}});
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kMixedItemsWithoutGroupBy));
}

TEST_F(LintRulesTest, GroupByMissingPlainItem) {
  auto q = CleanSelect();
  q->items.push_back({AggFunc::kNone, {0, 2}});   // Gender
  q->items.push_back({AggFunc::kCount, {0, 0}});
  q->group_by = {{0, 1}};  // Name grouped, Gender not
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kGroupByMissingPlainItem));
}

TEST_F(LintRulesTest, GroupByNotSelectItem) {
  auto q = CleanSelect();
  q->items.push_back({AggFunc::kCount, {0, 0}});
  q->group_by = {{0, 1}, {0, 2}};  // Gender is not a select item
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kGroupByNotSelectItem));
}

TEST_F(LintRulesTest, HavingWithoutGroupBy) {
  auto q = CleanSelect();
  HavingClause h;
  h.agg = AggFunc::kCount;
  h.column = {0, 0};
  h.value = Value(int64_t{1});
  q->having = h;
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kHavingWithoutGroupBy));
}

TEST_F(LintRulesTest, OrderByNotSelectItem) {
  auto q = CleanSelect();
  q->order_by = {{0, 2}};  // Gender, not projected
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kOrderByNotSelectItem));
}

TEST_F(LintRulesTest, ScalarSubqueryNotScalar) {
  auto q = CleanSelect();
  Predicate p;
  p.kind = PredicateKind::kScalarSub;
  p.column = {0, 0};
  p.op = CompareOp::kEq;
  p.subquery = CleanSelect();  // plain item, not a single aggregate
  q->where.predicates.push_back(std::move(p));
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kScalarSubqueryNotScalar));
}

TEST_F(LintRulesTest, InSubqueryShape) {
  auto q = CleanSelect();
  Predicate p;
  p.kind = PredicateKind::kInSub;
  p.column = {0, 0};
  auto sub = CleanSelect();
  sub->items.push_back({AggFunc::kNone, {0, 2}});  // two items
  p.subquery = std::move(sub);
  q->where.predicates.push_back(std::move(p));
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kInSubqueryShape));
}

TEST_F(LintRulesTest, InSubqueryTypeMismatch) {
  auto q = CleanSelect();
  Predicate p;
  p.kind = PredicateKind::kInSub;
  p.column = {0, 0};       // ID: int
  p.subquery = CleanSelect();  // projects Name: string
  q->where.predicates.push_back(std::move(p));
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kSubqueryTypeMismatch));
}

TEST_F(LintRulesTest, NestingTooDeep) {
  // 10 nested IN-subqueries exceed the linter's hard cap of 8.
  auto q = CleanSelect();
  q->items[0].column = {0, 0};
  for (int i = 0; i < 10; ++i) {
    auto outer = CleanSelect();
    outer->items[0].column = {0, 0};
    Predicate p;
    p.kind = PredicateKind::kInSub;
    p.column = {0, 0};
    p.subquery = std::move(q);
    outer->where.predicates.push_back(std::move(p));
    q = std::move(outer);
  }
  EXPECT_TRUE(HasRule(linter_.Lint(Wrap(std::move(q))),
                      LintRule::kNestingTooDeep));
}

TEST_F(LintRulesTest, DmlTargetInvalid) {
  QueryAst ast;
  ast.type = QueryType::kInsert;
  ast.insert = std::make_unique<InsertQuery>();
  ast.insert->table_idx = 99;
  EXPECT_TRUE(HasRule(linter_.Lint(ast), LintRule::kDmlTargetInvalid));
}

TEST_F(LintRulesTest, InsertArity) {
  QueryAst ast;
  ast.type = QueryType::kInsert;
  ast.insert = std::make_unique<InsertQuery>();
  ast.insert->table_idx = 0;
  ast.insert->values = {Value(int64_t{7})};  // Student has 3 columns
  EXPECT_TRUE(HasRule(linter_.Lint(ast), LintRule::kInsertArity));
}

TEST_F(LintRulesTest, InsertSourceShape) {
  QueryAst ast;
  ast.type = QueryType::kInsert;
  ast.insert = std::make_unique<InsertQuery>();
  ast.insert->table_idx = 0;
  ast.insert->source = CleanSelect();  // one item for a 3-column table
  EXPECT_TRUE(HasRule(linter_.Lint(ast), LintRule::kInsertSourceShape));
}

TEST_F(LintRulesTest, UpdatePrimaryKey) {
  QueryAst ast;
  ast.type = QueryType::kUpdate;
  ast.update = std::make_unique<UpdateQuery>();
  ast.update->table_idx = 0;
  ast.update->set_column = {0, 0};  // Student.ID is the PK
  ast.update->set_value = Value(int64_t{5});
  EXPECT_TRUE(HasRule(linter_.Lint(ast), LintRule::kUpdatePrimaryKey));
}

// ------------------------------------------------------- rule predicates

TEST(SqlLinterPredicatesTest, OperatorAggregateAndTypeTables) {
  EXPECT_TRUE(SqlLinter::OperatorAllowed(CompareOp::kLe, DataType::kInt64));
  EXPECT_FALSE(SqlLinter::OperatorAllowed(CompareOp::kLe, DataType::kString));
  EXPECT_TRUE(SqlLinter::OperatorAllowed(CompareOp::kEq, DataType::kString));

  EXPECT_TRUE(SqlLinter::AggregateAllowed(AggFunc::kCount, DataType::kString));
  EXPECT_FALSE(SqlLinter::AggregateAllowed(AggFunc::kSum, DataType::kString));
  EXPECT_TRUE(SqlLinter::AggregateAllowed(AggFunc::kAvg, DataType::kDouble));

  EXPECT_TRUE(SqlLinter::TypesComparable(DataType::kInt64, DataType::kDouble));
  EXPECT_FALSE(SqlLinter::TypesComparable(DataType::kInt64,
                                          DataType::kString));

  EXPECT_TRUE(SqlLinter::ValueCompatible(Value(int64_t{3}),
                                         DataType::kDouble));
  EXPECT_FALSE(SqlLinter::ValueCompatible(Value("x"), DataType::kInt64));
  EXPECT_FALSE(SqlLinter::ValueCompatible(Value::Null(), DataType::kInt64));
}

}  // namespace
}  // namespace lsg
