#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/random.h"
#include "core/batch_decoder.h"
#include "core/constraint.h"
#include "core/environment.h"
#include "core/generator.h"
#include "core/workload.h"
#include "datasets/job_like.h"
#include "exec/executor.h"
#include "obs/episode_telemetry.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "rl/reinforce_trainer.h"
#include "sql/render.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

// ------------------------------------------------------------ constraint

TEST(GeometricGridTest, EndpointsAndSpacing) {
  auto g = GeometricGrid(10, 10000, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g[0], 10.0, 1e-9);
  EXPECT_NEAR(g[3], 10000.0, 1e-6);
  // Constant ratio.
  EXPECT_NEAR(g[1] / g[0], g[2] / g[1], 1e-9);
}

TEST(GeometricGridTest, SinglePointIsGeometricMean) {
  auto g = GeometricGrid(10, 1000, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_NEAR(g[0], 100.0, 1e-9);
}

TEST(WideningRangesTest, PaperFamily) {
  auto rs = WideningRanges(ConstraintMetric::kCardinality, 1000);
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_DOUBLE_EQ(rs[0].lo, 1000);
  EXPECT_DOUBLE_EQ(rs[0].hi, 2000);
  EXPECT_DOUBLE_EQ(rs[3].hi, 8000);
  for (const Constraint& c : rs) {
    EXPECT_EQ(c.kind, ConstraintKind::kRange);
  }
}

TEST(SplitIntoTasksTest, ContiguousCover) {
  MetricDomain d{0, 10000};
  auto tasks = SplitIntoTasks(ConstraintMetric::kCardinality, d, 5);
  ASSERT_EQ(tasks.size(), 5u);
  EXPECT_DOUBLE_EQ(tasks[0].lo, 0);
  EXPECT_DOUBLE_EQ(tasks[0].hi, 2000);
  EXPECT_DOUBLE_EQ(tasks[4].hi, 10000);
  for (size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(tasks[i].lo, tasks[i - 1].hi);
  }
}

TEST(PointGridTest, WithinDomain) {
  MetricDomain d{10, 100000};
  auto pts = PointGrid(ConstraintMetric::kCost, d, 4);
  ASSERT_EQ(pts.size(), 4u);
  for (const Constraint& c : pts) {
    EXPECT_EQ(c.kind, ConstraintKind::kPoint);
    EXPECT_GE(c.point, d.lo * 0.999);
    EXPECT_LE(c.point, d.hi * 1.001);
  }
}

// ----------------------------------------------------------- environment

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildScoreStudentDb();
    stats_ = DatabaseStats::Collect(db_);
    est_ = std::make_unique<CardinalityEstimator>(&db_, &stats_);
    cost_ = std::make_unique<CostModel>(est_.get());
    VocabularyOptions vo;
    vo.values_per_column = 8;
    auto v = Vocabulary::Build(db_, vo);
    ASSERT_TRUE(v.ok());
    vocab_ = std::move(v).value();
  }

  std::unique_ptr<SqlGenEnvironment> MakeEnv(Constraint c) {
    EnvironmentOptions eo;
    return std::make_unique<SqlGenEnvironment>(&db_, &*vocab_, est_.get(),
                                               cost_.get(), c, eo);
  }

  int score() { return db_.catalog().FindTable("Score"); }

  Database db_;
  DatabaseStats stats_;
  std::unique_ptr<CardinalityEstimator> est_;
  std::unique_ptr<CostModel> cost_;
  std::optional<Vocabulary> vocab_;
};

TEST_F(EnvTest, StepRewardsFollowExecutability) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 25, 35));
  env->Reset();
  // FROM Score: not executable yet -> reward 0.
  auto r = env->Step(vocab_->keyword_id(Keyword::kFrom));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->reward, 0.0);
  r = env->Step(vocab_->table_token_id(score()));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->executable);
  r = env->Step(vocab_->keyword_id(Keyword::kSelect));
  ASSERT_TRUE(r.ok());
  // SELECT Score.SID FROM Score -> 30 rows, inside [25, 35] -> reward 1.
  r = env->Step(vocab_->column_token_id(score(), 0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->executable);
  EXPECT_DOUBLE_EQ(r->reward, 1.0);
  EXPECT_TRUE(r->satisfied);
  EXPECT_FALSE(r->done);
  r = env->Step(vocab_->eof_id());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->done);
  EXPECT_TRUE(r->satisfied);
  EXPECT_NEAR(r->metric, 30.0, 1e-6);
}

TEST_F(EnvTest, CostMetricUsesCostModel) {
  auto env = MakeEnv(Constraint::Point(ConstraintMetric::kCost, 1.0));
  env->Reset();
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(env->Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  auto r = env->Step(vocab_->column_token_id(score(), 0));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->metric, 0.0);
  EXPECT_NE(r->metric, 30.0);  // cost, not cardinality
}

TEST_F(EnvTest, FeedbackCallCounting) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 100));
  env->Reset();
  int64_t before = env->feedback_calls();
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  EXPECT_EQ(env->feedback_calls(), before);  // not executable, no feedback
  ASSERT_TRUE(env->Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  ASSERT_TRUE(env->Step(vocab_->column_token_id(score(), 0)).ok());
  EXPECT_GT(env->feedback_calls(), before);
}

TEST_F(EnvTest, TrueExecutionFeedbackMatchesExecutor) {
  EnvironmentOptions eo;
  eo.feedback = FeedbackSource::kTrueExecution;
  SqlGenEnvironment env(&db_, &*vocab_, est_.get(), cost_.get(),
                        Constraint::Range(ConstraintMetric::kCardinality, 25, 35),
                        eo);
  env.Reset();
  ASSERT_TRUE(env.Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(env.Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(env.Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  auto r = env.Step(vocab_->column_token_id(score(), 0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->metric, 30.0);  // exact, not estimated
}

// Production true-execution feedback runs on the vectorized engine; the
// reference Executor is its oracle. This is the environment-level check
// that the two agree bit for bit on FSM-legal queries (SELECT and DML) over
// the JOB data at 2x rows, the exec_feedback benchmark's database: card
// feedback is the executed cardinality, cost feedback the priced ExecStats
// of the executed SELECT (DML cost falls back to the estimate), and an
// execution error is 0 on both sides.
TEST(TrueExecutionOracleTest, EnvironmentMatchesExecutorOnRandomQueries) {
  Database db = BuildJobLike(DatasetScale::RowScale(2.0));
  LearnedSqlGenOptions opts;
  opts.profile = QueryProfile::Full();
  auto gen = LearnedSqlGen::Create(&db, opts);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const Vocabulary* vocab = &(*gen)->vocab();
  const CostModel& cost = (*gen)->cost_model();
  auto make_env = [&](ConstraintMetric metric, FeedbackSource feedback,
                      QueryProfile profile) {
    EnvironmentOptions eo;
    eo.profile = profile;
    eo.feedback = feedback;
    return std::make_unique<SqlGenEnvironment>(
        &db, vocab, &(*gen)->estimator(), &cost,
        Constraint::Range(metric, 10, 1000), eo);
  };
  // Rollouts take uniform FSM-legal actions, so their feedback source does
  // not matter: the cheap estimator drives them. Even episodes roll the
  // default (SELECT-only) profile the benchmark trains on, odd ones the
  // full profile, which is mostly DML.
  std::unique_ptr<SqlGenEnvironment> rollers[2] = {
      make_env(ConstraintMetric::kCardinality, FeedbackSource::kEstimator,
               QueryProfile()),
      make_env(ConstraintMetric::kCardinality, FeedbackSource::kEstimator,
               QueryProfile::Full())};
  auto card_env = make_env(ConstraintMetric::kCardinality,
                           FeedbackSource::kTrueExecution, QueryProfile());
  auto cost_env = make_env(ConstraintMetric::kCost,
                           FeedbackSource::kTrueExecution, QueryProfile());
  Executor oracle(&db);

  Rng rng(20260612);
  int selects = 0, dml = 0, executed = 0, nonzero = 0;
  for (int ep = 0; ep < 240; ++ep) {
    SqlGenEnvironment* roller = rollers[ep % 2].get();
    roller->Reset();
    bool done = false;
    for (int step = 0; step < kMaxEpisodeSteps && !done; ++step) {
      const std::vector<uint8_t>& mask = roller->ValidActions();
      std::vector<int> legal;
      for (int a = 0; a < static_cast<int>(mask.size()); ++a) {
        if (mask[a]) legal.push_back(a);
      }
      ASSERT_FALSE(legal.empty());
      auto r = roller->Step(legal[rng.Uniform(legal.size())]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      done = r->done;
    }
    ASSERT_TRUE(done);
    const QueryAst ast = roller->TakeAst();
    const bool is_select = ast.type == QueryType::kSelect;
    (is_select ? selects : dml) += 1;

    auto card = oracle.Cardinality(ast);
    executed += card.ok() ? 1 : 0;
    nonzero += card.ok() && *card > 0 ? 1 : 0;
    const double want_card = card.ok() ? static_cast<double>(*card) : 0.0;
    double want_cost = cost.EstimateCost(ast);
    if (is_select) {
      auto r = oracle.ExecuteSelect(*ast.select, /*materialize=*/false);
      want_cost = r.ok() ? cost.TrueCost(r->stats,
                                         static_cast<double>(r->cardinality))
                         : 0.0;
    }
    const double got_card = card_env->MetricOf(ast);
    const double got_cost = cost_env->MetricOf(ast);
    EXPECT_EQ(std::memcmp(&got_card, &want_card, sizeof(double)), 0)
        << "card " << got_card << " vs oracle " << want_card << ": "
        << RenderSql(ast, db.catalog());
    EXPECT_EQ(std::memcmp(&got_cost, &want_cost, sizeof(double)), 0)
        << "cost " << got_cost << " vs oracle " << want_cost << ": "
        << RenderSql(ast, db.catalog());
  }
  // The sample covers both statement families, and most queries execute
  // to a nonzero count (240 / 223 at this seed).
  EXPECT_GE(selects, 120);
  EXPECT_GE(dml, 60);
  EXPECT_GE(executed, 200);
  EXPECT_GE(nonzero, 150);
}

TEST_F(EnvTest, TelemetryBaselinesResetWhileObsDisabled) {
  // Regression: Reset() used to skip the per-episode telemetry baselines
  // unless obs::Enabled(), so turning observability on mid-run attributed
  // every feedback call since construction — and wall time since an
  // arbitrary epoch — to the first recorded episode.
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 100));
  auto run_episode = [&] {
    env->Reset();
    ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kFrom)).ok());
    ASSERT_TRUE(env->Step(vocab_->table_token_id(score())).ok());
    ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kSelect)).ok());
    ASSERT_TRUE(env->Step(vocab_->column_token_id(score(), 0)).ok());
    ASSERT_TRUE(env->Step(vocab_->eof_id()).ok());
  };

  obs::SetEnabled(false);
  run_episode();  // accumulates feedback calls with obs off
  const int64_t calls_before = env->feedback_calls();
  ASSERT_GT(calls_before, 0);

  std::string path =
      (std::filesystem::temp_directory_path() / "lsg_core_telemetry.jsonl")
          .string();
  std::filesystem::remove(path);
  {
    obs::EpisodeTelemetry sink(path);
    ASSERT_TRUE(sink.ok());
    obs::SetEnabled(true);
    obs::SetEpisodeSink(&sink);
    run_episode();  // the only episode that should be in the row
    obs::SetEpisodeSink(nullptr);
    obs::SetEnabled(false);
  }

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto row = obs::JsonParse(line);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  // Exactly the second episode's two feedback evaluations (the executable
  // prefix and the completed query), none of the first episode's.
  EXPECT_DOUBLE_EQ(row->NumberOr("estimator_calls", -1),
                   static_cast<double>(env->feedback_calls() - calls_before));
  // Wall time measured from this episode's Reset(), not from an epoch.
  EXPECT_GE(row->NumberOr("wall_seconds", -1), 0.0);
  EXPECT_LT(row->NumberOr("wall_seconds", -1), 60.0);
  std::filesystem::remove(path);
}

TEST_F(EnvTest, ProbeMetricDomainOrdered) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 10));
  Rng rng(77);
  MetricDomain d = ProbeMetricDomain(env.get(), 200, &rng);
  EXPECT_GE(d.lo, 1.0);
  EXPECT_GT(d.hi, d.lo);
}

// ------------------------------------------------------------- workload

TEST(FeaturesTest, SelectFeatures) {
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>();
  ast.select->tables = {0, 1};
  ast.select->items.push_back({AggFunc::kMax, {0, 0}});
  Predicate p;
  p.kind = PredicateKind::kInSub;
  p.subquery = std::make_unique<SelectQuery>();
  ast.select->where.predicates.push_back(std::move(p));
  QueryFeatures f = FeaturesOf(ast, 12);
  EXPECT_EQ(f.type, QueryType::kSelect);
  EXPECT_EQ(f.num_tables, 2);
  EXPECT_TRUE(f.nested);
  EXPECT_TRUE(f.has_aggregate);
  EXPECT_EQ(f.num_predicates, 1);
  EXPECT_EQ(f.num_tokens, 12);
}

TEST(FeaturesTest, DmlFeatures) {
  QueryAst ast;
  ast.type = QueryType::kDelete;
  ast.del = std::make_unique<DeleteQuery>();
  ast.del->table_idx = 0;
  Predicate p;
  ast.del->where.predicates.push_back(std::move(p));
  QueryFeatures f = FeaturesOf(ast, 6);
  EXPECT_EQ(f.type, QueryType::kDelete);
  EXPECT_EQ(f.num_predicates, 1);
  EXPECT_FALSE(f.nested);
}

TEST(WorkloadDistributionTest, Aggregates) {
  WorkloadDistribution dist;
  QueryFeatures a;
  a.num_tables = 1;
  a.num_tokens = 7;
  QueryFeatures b;
  b.num_tables = 3;
  b.nested = true;
  b.has_aggregate = true;
  b.num_predicates = 2;
  b.num_tokens = 22;
  dist.Add(a);
  dist.Add(b);
  EXPECT_EQ(dist.total(), 2);
  EXPECT_DOUBLE_EQ(dist.MultiJoinFraction(), 0.5);
  EXPECT_DOUBLE_EQ(dist.NestedFraction(), 0.5);
  EXPECT_DOUBLE_EQ(dist.AggregateFraction(), 0.5);
  EXPECT_EQ(dist.predicate_histogram().at(0), 1);
  EXPECT_EQ(dist.predicate_histogram().at(2), 1);
  EXPECT_EQ(dist.token_length_histogram().at(5), 1);
  EXPECT_EQ(dist.token_length_histogram().at(20), 1);
  EXPECT_FALSE(dist.ToString().empty());
}

TEST(WorkloadDistributionTest, EmptyIsSafe) {
  WorkloadDistribution dist;
  EXPECT_DOUBLE_EQ(dist.MultiJoinFraction(), 0.0);
  EXPECT_DOUBLE_EQ(dist.NestedFraction(), 0.0);
  EXPECT_EQ(dist.total(), 0);
}

// ------------------------------------------------------------- generator

TEST(GeneratorTest, CreateRejectsEmptyDb) {
  Database empty;
  auto gen = LearnedSqlGen::Create(&empty, LearnedSqlGenOptions());
  EXPECT_FALSE(gen.ok());
  EXPECT_FALSE(LearnedSqlGen::Create(nullptr, LearnedSqlGenOptions()).ok());
}

// The pipeline never feeds constraint features, so a dense-input network
// would train on zero-filled tails; Create refuses it up front.
TEST(GeneratorTest, CreateRejectsDenseExtraInputs) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.trainer.net.extra_input_dims = 2;
  auto gen = LearnedSqlGen::Create(&db, opts);
  EXPECT_EQ(gen.status().code(), StatusCode::kInvalidArgument);
}

// A profile opening no statement kind would abort in the FSM constructor
// at the first Train (killing a service worker); Create refuses it.
TEST(GeneratorTest, CreateRejectsProfileWithNoStatementKind) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.profile.allow_select = false;
  auto gen = LearnedSqlGen::Create(&db, opts);
  EXPECT_EQ(gen.status().code(), StatusCode::kInvalidArgument);
  // Any single statement kind is enough.
  opts.profile = QueryProfile::DeleteOnly();
  EXPECT_TRUE(LearnedSqlGen::Create(&db, opts).ok());
}

TEST(GeneratorTest, GenerateBeforeTrainFails) {
  Database db = BuildScoreStudentDb();
  auto gen = LearnedSqlGen::Create(&db, LearnedSqlGenOptions());
  ASSERT_TRUE(gen.ok());
  auto rep = (*gen)->GenerateBatch(5);
  EXPECT_EQ(rep.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GeneratorTest, TrainThenGenerateBatch) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.train_epochs = 10;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  auto gen = LearnedSqlGen::Create(&db, opts);
  ASSERT_TRUE(gen.ok());
  Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 5, 50);
  ASSERT_TRUE((*gen)->Train(c).ok());
  EXPECT_EQ((*gen)->trace().size(), 10u);
  auto rep = (*gen)->GenerateBatch(20);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->attempts, 20);
  EXPECT_EQ(rep->queries.size(), 20u);
  EXPECT_GE(rep->accuracy, 0.0);
  EXPECT_LE(rep->accuracy, 1.0);
  for (const GeneratedQuery& q : rep->queries) {
    EXPECT_FALSE(q.sql.empty());
  }
}

TEST(GeneratorTest, GenerateSatisfiedStopsAtTarget) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.train_epochs = 25;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  opts.attempts_factor = 100;
  auto gen = LearnedSqlGen::Create(&db, opts);
  ASSERT_TRUE(gen.ok());
  // Easy constraint: almost everything under 100 rows.
  Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 1, 100);
  ASSERT_TRUE((*gen)->Train(c).ok());
  auto rep = (*gen)->GenerateSatisfied(5);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->satisfied, 5);
  EXPECT_EQ(rep->queries.size(), 5u);
  for (const GeneratedQuery& q : rep->queries) {
    EXPECT_TRUE(q.satisfied);
    EXPECT_GE(q.metric, 1.0);
    EXPECT_LE(q.metric, 100.0);
  }
  EXPECT_GT(rep->train_seconds, 0.0);
}

// The decode contract: BatchDecoder (one batched forward per step, ragged
// lanes that join and retire at different times) yields byte-for-byte the
// queries of the scalar rollout loop — RolloutPolicy(train=false), the loop
// training samples with — run one episode at a time on each request's
// stream. A second decode at max_lanes = 1 pins the single-lane path (the
// shape of LearnedSqlGen::Generate*) to the same output, and the library
// calls leave the caller's stream exactly where the reference left it.
TEST(BatchDecoderTest, MatchesSequentialGenerationBitwise) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.train_epochs = 8;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  opts.attempts_factor = 40;
  auto gen = LearnedSqlGen::Create(&db, opts);
  ASSERT_TRUE(gen.ok());
  Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 5, 50);
  ASSERT_TRUE((*gen)->Train(c).ok());
  auto snap = (*gen)->MakeServingSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Mixed item shapes: distinct n, batch vs satisfied semantics, so lanes
  // retire raggedly and the batch width varies mid-run.
  struct Spec {
    int n;
    bool batch_mode;
  };
  const std::vector<Spec> specs = {
      {4, true}, {2, true}, {3, false}, {1, true}, {2, false}};
  auto seed_of = [](size_t i) { return SplitMix64(0x5eedULL + i); };
  auto make_items = [&] {
    std::vector<BatchDecodeItem> items(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      items[i].n = specs[i].n;
      items[i].batch_mode = specs[i].batch_mode;
      items[i].rng = Rng(seed_of(i));
    }
    return items;
  };
  auto run = [&snap](std::vector<BatchDecodeItem>* items, int max_lanes) {
    std::vector<BatchDecodeItem*> ptrs;
    for (BatchDecodeItem& item : *items) ptrs.push_back(&item);
    return BatchDecoder(&*snap, max_lanes).Run(ptrs);
  };

  // Sequential reference: RolloutPolicy episodes on the item's stream, kept
  // and budgeted as GenerateBatch / GenerateSatisfied document. RolloutPolicy
  // takes a mutable network, so it runs a copy of the trained actor.
  PolicyNetwork actor = *snap->actor;
  SqlGenEnvironment env(&db, snap->vocab, snap->estimator, snap->cost_model,
                        snap->constraint, snap->env_opts);
  struct Reference {
    int attempts = 0;
    int satisfied = 0;
    std::vector<Trajectory> kept;
    Rng rng;
  };
  auto reference = [&](const Spec& spec, Rng rng) {
    Reference ref;
    const int budget = spec.batch_mode ? spec.n : spec.n * opts.attempts_factor;
    while (ref.attempts < budget && (spec.batch_mode || ref.satisfied < spec.n)) {
      auto traj = RolloutPolicy(&env, &actor, &rng, /*train=*/false, nullptr);
      EXPECT_TRUE(traj.ok()) << traj.status().ToString();
      if (!traj.ok()) break;
      ++ref.attempts;
      if (traj->satisfied) ++ref.satisfied;
      if (spec.batch_mode || traj->satisfied) {
        ref.kept.push_back(std::move(*traj));
      }
    }
    ref.rng = rng;
    return ref;
  };

  std::vector<BatchDecodeItem> batched = make_items();
  auto stats = run(&batched, static_cast<int>(batched.size()));
  EXPECT_GT(stats.peak_lanes, 1);
  EXPECT_GT(stats.lane_steps, stats.steps);  // lanes actually shared steps

  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    const Reference ref = reference(specs[i], Rng(seed_of(i)));
    const GenerationReport& got = batched[i].report;
    EXPECT_EQ(got.attempts, ref.attempts);
    EXPECT_EQ(got.satisfied, ref.satisfied);
    ASSERT_EQ(got.queries.size(), ref.kept.size());
    for (size_t q = 0; q < ref.kept.size(); ++q) {
      EXPECT_EQ(got.queries[q].sql, RenderSql(ref.kept[q].ast, db.catalog()));
      EXPECT_EQ(got.queries[q].metric, ref.kept[q].final_metric);
      EXPECT_EQ(got.queries[q].satisfied, ref.kept[q].satisfied);
    }
    EXPECT_EQ(batched[i].rng.Next(), Rng(ref.rng).Next());

    Rng rng(seed_of(i));
    auto lib = specs[i].batch_mode ? (*gen)->GenerateBatch(specs[i].n, &rng)
                                   : (*gen)->GenerateSatisfied(specs[i].n, &rng);
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    ASSERT_EQ(lib->queries.size(), got.queries.size());
    for (size_t q = 0; q < got.queries.size(); ++q) {
      EXPECT_EQ(lib->queries[q].sql, got.queries[q].sql);
    }
    EXPECT_EQ(rng.Next(), Rng(ref.rng).Next());
  }

  std::vector<BatchDecodeItem> solo = make_items();
  run(&solo, 1);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(solo[i].status.ok());
    ASSERT_EQ(solo[i].report.queries.size(), batched[i].report.queries.size());
    for (size_t q = 0; q < solo[i].report.queries.size(); ++q) {
      EXPECT_EQ(solo[i].report.queries[q].sql,
                batched[i].report.queries[q].sql);
    }
  }
}

// After a true-execution feedback tail, the library decodes the way the
// service does: GenerateBatch on a stream returns exactly what the
// published snapshot's BatchDecoder (the service's decode) returns on the
// same stream, and every query is judged by the estimator the model was
// trained under before the switch — not by the training environment the
// tail left on execution feedback.
TEST(GeneratorTest, GenerateAfterExecutionTailMatchesServingDecode) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.train_epochs = 8;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  opts.true_feedback_tail = 0.5;
  auto gen = LearnedSqlGen::Create(&db, opts);
  ASSERT_TRUE(gen.ok());
  const Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 5, 50);
  ASSERT_TRUE((*gen)->Train(c).ok());
  ASSERT_TRUE((*gen)->trace().back().true_execution_feedback);
  auto snap = (*gen)->MakeServingSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  const int n = 24;
  const uint64_t seed = 0xfeedULL;
  BatchDecodeItem item;
  item.n = n;
  item.batch_mode = true;
  item.rng = Rng(seed);
  BatchDecoder(&*snap, /*max_lanes=*/4).Run({&item});
  ASSERT_TRUE(item.status.ok()) << item.status.ToString();

  Rng rng(seed);
  auto rep = (*gen)->GenerateBatch(n, &rng);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_EQ(rep->queries.size(), item.report.queries.size());
  EXPECT_EQ(rep->satisfied, item.report.satisfied);

  SqlGenEnvironment estimator_env(&db, &(*gen)->vocab(), &(*gen)->estimator(),
                                  &(*gen)->cost_model(), c,
                                  EnvironmentOptions());
  for (size_t q = 0; q < rep->queries.size(); ++q) {
    const GeneratedQuery& got = rep->queries[q];
    EXPECT_EQ(got.sql, item.report.queries[q].sql);
    EXPECT_EQ(got.metric, item.report.queries[q].metric) << got.sql;
    EXPECT_EQ(got.satisfied, item.report.queries[q].satisfied) << got.sql;
    EXPECT_EQ(got.metric, estimator_env.MetricOf(got.ast)) << got.sql;
    EXPECT_EQ(got.satisfied, c.Satisfied(got.metric)) << got.sql;
  }
}

TEST(GeneratorTest, ReinforceVariantTrains) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.train_epochs = 5;
  opts.trainer.batch_size = 4;
  opts.use_reinforce = true;
  opts.vocab.values_per_column = 8;
  auto gen = LearnedSqlGen::Create(&db, opts);
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(
      (*gen)->Train(Constraint::Range(ConstraintMetric::kCardinality, 1, 50))
          .ok());
  auto rep = (*gen)->GenerateBatch(5);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->attempts, 5);
}

}  // namespace
}  // namespace lsg
