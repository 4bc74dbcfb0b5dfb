// Vectorized execution engine suite: batch/selection-vector boundary
// cases, NULL and duplicate join keys, aggregation edges, the MorselPool
// dispatcher, mutation testing of the vexec lockstep oracle, the
// work-meter regressions of the reference evaluator, and a randomized
// differential sweep (vectorized vs. reference executor, bitwise) over
// every bundled dataset.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "exec/executor.h"
#include "fsm/generation_fsm.h"
#include "fuzz/oracle.h"
#include "fuzz/reference_eval.h"
#include "fuzz/test_databases.h"
#include "sql/render.h"
#include "vexec/backend_factory.h"
#include "vexec/batch.h"
#include "vexec/hash_table.h"
#include "vexec/morsel_pool.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

using vexec::InjectBug;
using vexec::kBatchSize;
using vexec::MorselPool;
using vexec::VectorizedEngine;
using vexec::VexecOptions;

// ---------------------------------------------------------------- helpers

/// Two tables joined by an FK edge, with full control over the key
/// columns: Fact(id PK, key INT64 nullable, v DOUBLE) -> Dim(id PK
/// via key, tag STRING). `fact_keys`/`dim_ids` use INT64_MIN as NULL.
constexpr int64_t kNull = INT64_MIN;

Database BuildJoinDb(const std::vector<int64_t>& fact_keys,
                     const std::vector<int64_t>& dim_ids) {
  Database db;
  {
    TableSchema s("Dim");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, true}));
    LSG_CHECK_OK(s.AddColumn({"tag", DataType::kString, false, false}));
    Table t(std::move(s));
    for (size_t i = 0; i < dim_ids.size(); ++i) {
      Value id = dim_ids[i] == kNull ? Value::Null() : Value(dim_ids[i]);
      LSG_CHECK_OK(t.AppendRow({id, Value("d" + std::to_string(i))}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Fact");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"key", DataType::kInt64, false, true}));
    LSG_CHECK_OK(s.AddColumn({"v", DataType::kDouble, false, false}));
    Table t(std::move(s));
    for (size_t i = 0; i < fact_keys.size(); ++i) {
      Value key =
          fact_keys[i] == kNull ? Value::Null() : Value(fact_keys[i]);
      LSG_CHECK_OK(t.AppendRow({Value(static_cast<int64_t>(i)), key,
                                Value(static_cast<double>(i) * 0.5)}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  LSG_CHECK_OK(db.AddForeignKey({"Fact", "key", "Dim", "id"}));
  return db;
}

/// Runs the SELECT through both engines and asserts bitwise-identical
/// results: cardinality, first_column (exact Values), and ExecStats.
void ExpectSelectAgrees(const Database& db, const SelectQuery& q,
                        int workers = 1) {
  Executor ref(&db);
  VectorizedEngine vec(&db, VexecOptions{.workers = workers});
  auto a = ref.ExecuteSelect(q, /*materialize_first_column=*/true);
  auto b = vec.ExecuteSelect(q, /*materialize_first_column=*/true);
  ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                            << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code());
    return;
  }
  EXPECT_EQ(a->cardinality, b->cardinality);
  ASSERT_EQ(a->first_column.size(), b->first_column.size());
  for (size_t i = 0; i < a->first_column.size(); ++i) {
    const Value& va = a->first_column[i];
    const Value& vb = b->first_column[i];
    EXPECT_EQ(va.is_null(), vb.is_null()) << "row " << i;
    if (!va.is_null() && !vb.is_null()) {
      EXPECT_EQ(va.Compare(vb), 0)
          << "row " << i << ": " << va.ToSqlLiteral() << " vs "
          << vb.ToSqlLiteral();
    }
  }
  EXPECT_EQ(a->stats.rows_scanned, b->stats.rows_scanned);
  EXPECT_EQ(a->stats.rows_joined, b->stats.rows_joined);
  EXPECT_EQ(a->stats.rows_probed, b->stats.rows_probed);
  EXPECT_EQ(a->stats.rows_output, b->stats.rows_output);
}

SelectQuery SelectAll(int table_idx, int item_col = 0) {
  SelectQuery q;
  q.tables = {table_idx};
  SelectItem item;
  item.column = {table_idx, item_col};
  q.items.push_back(std::move(item));
  return q;
}

Predicate ValuePred(int table_idx, int column_idx, CompareOp op, Value v) {
  Predicate p;
  p.kind = PredicateKind::kValue;
  p.column = {table_idx, column_idx};
  p.op = op;
  p.value = std::move(v);
  return p;
}

// ------------------------------------------------------- boundary cases

TEST(VexecBoundaryTest, EmptyTables) {
  Database db = BuildJoinDb(/*fact_keys=*/{}, /*dim_ids=*/{});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");

  // Plain scan of an empty table.
  ExpectSelectAgrees(db, SelectAll(fact));

  // Join with both sides empty.
  SelectQuery join = SelectAll(fact);
  join.tables.push_back(dim);
  ExpectSelectAgrees(db, join);

  // Aggregate over an empty input still yields one row in both engines.
  SelectQuery agg = SelectAll(fact, /*item_col=*/2);
  agg.items[0].agg = AggFunc::kCount;
  ExpectSelectAgrees(db, agg);
  agg.items[0].agg = AggFunc::kSum;
  ExpectSelectAgrees(db, agg);
}

TEST(VexecBoundaryTest, SelectionVectorEdgeAtBatchSize) {
  // Sizes straddling the batch boundary: the last tuple of a full batch,
  // a batch-plus-one tail, and an exact multiple. The predicate keeps
  // every even id, so the final tuple of each batch flips kept/dropped
  // depending on parity — exactly the off-by-one surface.
  for (size_t n : {kBatchSize - 1, kBatchSize, kBatchSize + 1,
                   2 * kBatchSize}) {
    std::vector<int64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i % 7);
    Database db = BuildJoinDb(keys, /*dim_ids=*/{0, 1, 2});
    const int fact = db.catalog().FindTable("Fact");
    SelectQuery q = SelectAll(fact);
    q.where.predicates.push_back(
        ValuePred(fact, 1, CompareOp::kLe, Value(int64_t{3})));
    ExpectSelectAgrees(db, q);
    ExpectSelectAgrees(db, q, /*workers=*/3);

    // Exact expected count: keys cycle 0..6, kept when key <= 3.
    Executor ref(&db);
    auto r = ref.ExecuteSelect(q, false);
    ASSERT_TRUE(r.ok());
    uint64_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i % 7 <= 3) ++want;
    }
    EXPECT_EQ(r->cardinality, want);
  }
}

TEST(VexecBoundaryTest, NullKeysNeverJoin) {
  // NULLs on the probe side, the build side, and both.
  Database db = BuildJoinDb(/*fact_keys=*/{0, kNull, 1, kNull, 2},
                            /*dim_ids=*/{0, kNull, 2, kNull});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  SelectQuery q = SelectAll(fact);
  q.tables.push_back(dim);
  ExpectSelectAgrees(db, q);
  Executor ref(&db);
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(std::move(q));
  auto card = ref.Cardinality(ast);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(*card, 2u);  // keys 0 and 2 match; NULL never does
}

TEST(VexecBoundaryTest, DuplicateKeyBuildSide) {
  // Duplicate build keys: every probe hit fans out in build insertion
  // order, so first_column equality proves the chain order matches the
  // reference engine's bucket order.
  Database db = BuildJoinDb(/*fact_keys=*/{5, 5, 7},
                            /*dim_ids=*/{5, 5, 5, 7, 7});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  SelectQuery q;
  q.tables = {fact, dim};
  SelectItem item;
  item.column = {dim, 1};  // Dim.tag distinguishes the duplicate rows
  q.items.push_back(std::move(item));
  ExpectSelectAgrees(db, q);
  VectorizedEngine vec(&db);
  auto r = vec.ExecuteSelect(q, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 2u * 3u + 1u * 2u);
}

TEST(VexecBoundaryTest, AggregationOverZeroGroups) {
  Database db = BuildJoinDb(/*fact_keys=*/{1, 2, 3}, /*dim_ids=*/{1, 2, 3});
  const int fact = db.catalog().FindTable("Fact");
  // WHERE matches nothing -> zero groups -> zero output rows.
  SelectQuery q = SelectAll(fact, /*item_col=*/2);
  q.items[0].agg = AggFunc::kAvg;
  q.where.predicates.push_back(
      ValuePred(fact, 1, CompareOp::kGt, Value(int64_t{100})));
  q.group_by.push_back({fact, 1});
  ExpectSelectAgrees(db, q);
  VectorizedEngine vec(&db);
  auto r = vec.ExecuteSelect(q, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 0u);
  EXPECT_TRUE(r->first_column.empty());
}

TEST(VexecBoundaryTest, MatchRowsAgreesOnEmptyAndNonEmptyWhere) {
  std::vector<int64_t> keys(kBatchSize + 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i % 5);
  }
  Database db = BuildJoinDb(keys, /*dim_ids=*/{0, 1});
  const int fact = db.catalog().FindTable("Fact");
  Executor ref(&db);
  VectorizedEngine vec(&db);

  WhereClause empty;
  auto a = ref.MatchRows(fact, empty);
  auto b = vec.MatchRows(fact, empty);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  WhereClause w;
  w.predicates.push_back(
      ValuePred(fact, 1, CompareOp::kEq, Value(int64_t{4})));
  a = ref.MatchRows(fact, w);
  b = vec.MatchRows(fact, w);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// ------------------------------------------------------------ hash table

TEST(Int64JoinHashTableTest, DuplicatesChainInInsertionOrder) {
  vexec::Int64JoinHashTable ht(8);
  ht.Insert(42, 1);
  ht.Insert(7, 2);
  ht.Insert(42, 3);
  ht.Insert(42, 5);
  std::vector<uint32_t> rows;
  for (int32_t e = ht.Find(42); e >= 0; e = ht.Next(e)) {
    rows.push_back(ht.Row(e));
  }
  EXPECT_EQ(rows, (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_LT(ht.Find(999), 0);
}

TEST(Int64JoinHashTableTest, DenseModeMatchesSparseSemantics) {
  // Sequential-PK build sides take the direct-address mode; chain order
  // and miss behavior must be indistinguishable from the sparse table.
  EXPECT_TRUE(vexec::Int64JoinHashTable::DenseRangeUsable(100, 104, 5));
  EXPECT_FALSE(vexec::Int64JoinHashTable::DenseRangeUsable(0, 1 << 20, 5));
  vexec::Int64JoinHashTable dense(100, 104, 5);
  vexec::Int64JoinHashTable sparse(5);
  EXPECT_TRUE(dense.dense());
  EXPECT_FALSE(sparse.dense());
  for (auto* ht : {&dense, &sparse}) {
    ht->Insert(102, 1);
    ht->Insert(100, 2);
    ht->Insert(102, 3);
    ht->Insert(104, 4);
  }
  for (int64_t key : {99, 100, 101, 102, 103, 104, 105, 1000}) {
    std::vector<uint32_t> a, b;
    for (int32_t e = dense.Find(key); e >= 0; e = dense.Next(e)) {
      a.push_back(dense.Row(e));
    }
    for (int32_t e = sparse.Find(key); e >= 0; e = sparse.Next(e)) {
      b.push_back(sparse.Row(e));
    }
    EXPECT_EQ(a, b) << "key " << key;
  }
}

// ------------------------------------------------------------ morsel pool

TEST(MorselPoolTest, RunsEveryMorselExactlyOnce) {
  for (int workers : {1, 2, 4}) {
    MorselPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.Run(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "morsel " << i;
    }
  }
}

TEST(MorselPoolTest, ReusableAcrossJobsAndZeroMorsels) {
  MorselPool pool(3);
  pool.Run(0, [&](size_t) { FAIL() << "no morsels to run"; });
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.Run(64, [&](size_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 20ull * (64ull * 65ull / 2ull));
}

// ------------------------------------------------------ mutation testing

TEST(VexecMutationTest, HashCollisionBugDiverges) {
  // Probe keys absent from the build side: correct joins produce zero
  // matches, but with key rechecks disabled any probe whose home slot is
  // occupied (7 of 16 slots here, across 64 distinct probe keys) accepts
  // the foreign entry — so the buggy engine must overcount.
  std::vector<int64_t> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(1000 + i);
  std::vector<int64_t> dims;
  for (int i = 0; i < 7; ++i) dims.push_back(i);
  Database db = BuildJoinDb(keys, dims);
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>();
  ast.select->tables = {fact, dim};
  SelectItem item;
  item.column = {fact, 0};
  ast.select->items.push_back(std::move(item));

  Executor ref(&db);
  VectorizedEngine buggy(&db, VexecOptions{.inject = InjectBug::kHashCollision});
  auto a = ref.Cardinality(ast);
  auto b = buggy.Cardinality(ast);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b) << "planted hash-collision bug was not observable";

  // The lockstep oracle must catch the same plant.
  OracleOptions opts;
  opts.check_vexec = true;
  opts.inject_vexec_bug = InjectBug::kHashCollision;
  DifferentialOracle oracle(&db, opts);
  auto v = oracle.Check(ast);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->oracle, "vexec");
}

TEST(VexecMutationTest, SelVectorOffByOneBugDiverges) {
  Database db = BuildJoinDb(/*fact_keys=*/{1, 1, 1, 1}, /*dim_ids=*/{1});
  const int fact = db.catalog().FindTable("Fact");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(SelectAll(fact));
  ast.select->where.predicates.push_back(
      ValuePred(fact, 1, CompareOp::kEq, Value(int64_t{1})));

  Executor ref(&db);
  VectorizedEngine buggy(
      &db, VexecOptions{.inject = InjectBug::kSelVectorOffByOne});
  auto a = ref.Cardinality(ast);
  auto b = buggy.Cardinality(ast);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 4u);
  EXPECT_EQ(*b, 3u);  // the batch's final tuple is dropped

  OracleOptions opts;
  opts.inject_vexec_bug = InjectBug::kSelVectorOffByOne;
  DifferentialOracle oracle(&db, opts);
  auto v = oracle.Check(ast);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->oracle, "vexec");
}

TEST(VexecMutationTest, CleanEnginePassesOracle) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(SelectAll(score, /*item_col=*/3));
  ast.select->where.predicates.push_back(
      ValuePred(score, 3, CompareOp::kGe, Value(80.0)));
  DifferentialOracle oracle(&db);
  auto v = oracle.Check(ast);
  EXPECT_FALSE(v.has_value()) << v->oracle << ": " << v->detail;
}

// ------------------------------------------------ work-meter regressions

TEST(ReferenceWorkMeterTest, BaseScanIsCharged) {
  Database db = BuildScoreStudentDb();  // Score has 30 rows
  const int score = db.catalog().FindTable("Score");
  SelectQuery q = SelectAll(score);
  ReferenceEvaluator tight(&db, /*max_work=*/10);
  auto r = tight.EvalSelect(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  ReferenceEvaluator loose(&db, /*max_work=*/1 << 20);
  auto ok = loose.EvalSelect(q);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->cardinality, 30u);
}

TEST(ReferenceWorkMeterTest, EmptyWhereCountMatchingIsCharged) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  QueryAst ast;
  ast.type = QueryType::kDelete;
  ast.del = std::make_unique<DeleteQuery>();
  ast.del->table_idx = score;  // empty WHERE: every row matches
  ReferenceEvaluator tight(&db, /*max_work=*/5);
  auto r = tight.EvalAst(ast);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  ReferenceEvaluator loose(&db, /*max_work=*/1 << 20);
  auto ok = loose.EvalAst(ast);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 30u);
}

TEST(ReferenceWorkMeterTest, GroupingIsCharged) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  SelectQuery q = SelectAll(score, /*item_col=*/3);
  q.items[0].agg = AggFunc::kAvg;
  q.group_by.push_back({score, 2});
  // Budget covers the base scan (30) + empty-WHERE units (30) but not the
  // additional per-kept-tuple aggregation charge.
  ReferenceEvaluator tight(&db, /*max_work=*/60);
  auto r = tight.EvalSelect(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ExecStatsTest, AddSaturatesAtMaxRows) {
  ExecStats a;
  a.rows_scanned = ExecStats::kMaxRows - 1.0;
  ExecStats b;
  b.rows_scanned = ExecStats::kMaxRows;
  b.rows_joined = 5.0;
  a.Add(b);
  EXPECT_EQ(a.rows_scanned, ExecStats::kMaxRows);
  EXPECT_EQ(a.rows_joined, 5.0);
  EXPECT_EQ(ExecStats::Clamp(1e306), ExecStats::kMaxRows);
  EXPECT_EQ(ExecStats::Clamp(123.0), 123.0);
}

// ------------------------------------------------- differential sweeps

class VexecDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VexecDifferentialTest, MatchesReferenceOnBundledDataset) {
  auto db = BuildNamedDatabase(GetParam(), /*scale=*/0.05);
  ASSERT_TRUE(db.ok());
  VocabularyOptions vo;
  vo.values_per_column = 8;
  auto vocab = Vocabulary::Build(*db, vo);
  ASSERT_TRUE(vocab.ok());
  Executor ref(&*db);
  VectorizedEngine serial(&*db);
  VectorizedEngine parallel(&*db, VexecOptions{.workers = 3});
  QueryProfile profile = QueryProfile::Full();
  GenerationFsm fsm(&*db, &*vocab, profile);
  Rng rng(77);
  const char* exhaustive = std::getenv("LSG_EXHAUSTIVE_VEXEC");
  const int episodes =
      exhaustive != nullptr && exhaustive[0] == '1' ? 2000 : 150;
  for (int i = 0; i < episodes; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    const std::string sql = RenderSql(*ast, db->catalog());
    auto a = ref.Cardinality(*ast);
    auto sb = serial.Cardinality(*ast);
    auto pb = parallel.Cardinality(*ast);
    ASSERT_EQ(a.ok(), sb.ok()) << sql;
    ASSERT_EQ(a.ok(), pb.ok()) << sql;
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), StatusCode::kOutOfRange) << sql;
      continue;
    }
    EXPECT_EQ(*a, *sb) << sql;
    EXPECT_EQ(*a, *pb) << sql;
    if (ast->type == QueryType::kSelect) {
      auto ra = ref.ExecuteSelect(*ast->select, true);
      auto rb = serial.ExecuteSelect(*ast->select, true);
      ASSERT_TRUE(ra.ok() && rb.ok()) << sql;
      ASSERT_EQ(ra->first_column.size(), rb->first_column.size()) << sql;
      for (size_t v = 0; v < ra->first_column.size(); ++v) {
        const Value& va = ra->first_column[v];
        const Value& vb = rb->first_column[v];
        ASSERT_EQ(va.is_null(), vb.is_null()) << sql;
        if (!va.is_null()) {
          ASSERT_EQ(va.Compare(vb), 0) << sql;
        }
      }
      EXPECT_EQ(ra->stats.rows_scanned, rb->stats.rows_scanned) << sql;
      EXPECT_EQ(ra->stats.rows_joined, rb->stats.rows_joined) << sql;
      EXPECT_EQ(ra->stats.rows_probed, rb->stats.rows_probed) << sql;
      EXPECT_EQ(ra->stats.rows_output, rb->stats.rows_output) << sql;
    }
    if (ast->type == QueryType::kUpdate || ast->type == QueryType::kDelete) {
      const int t = ast->type == QueryType::kUpdate
                        ? ast->update->table_idx
                        : ast->del->table_idx;
      const WhereClause& w = ast->type == QueryType::kUpdate
                                 ? ast->update->where
                                 : ast->del->where;
      auto ma = ref.MatchRows(t, w);
      auto mb = serial.MatchRows(t, w);
      ASSERT_TRUE(ma.ok() && mb.ok()) << sql;
      EXPECT_EQ(*ma, *mb) << sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, VexecDifferentialTest,
                         ::testing::Values("score", "tpch", "job",
                                           "xuetang"));

// ------------------------------------------------------ backend factory

TEST(BackendFactoryTest, BuildsBothBackends) {
  Database db = BuildScoreStudentDb();
  auto ref = vexec::MakeBackend(ExecutionBackendKind::kReference, &db);
  auto vec = vexec::MakeBackend(ExecutionBackendKind::kVectorized, &db);
  const int score = db.catalog().FindTable("Score");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(SelectAll(score));
  auto a = ref->Cardinality(ast);
  auto b = vec->Cardinality(ast);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, 30u);
}

}  // namespace
}  // namespace lsg
