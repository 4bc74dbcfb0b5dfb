// Google-benchmark micro-benchmarks for the core components: FSM masking,
// random-walk episodes, executor operators, estimator, cost model, LSTM
// forward/backward, and vocabulary construction.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/environment.h"
#include "core/workload.h"
#include "datasets/tpch_like.h"
#include "exec/executor.h"
#include "fuzz/trace.h"
#include "nn/lstm.h"
#include "optimizer/cost_model.h"
#include "optimizer/feedback_cache.h"
#include "rl/policy_network.h"

namespace lsg {
namespace {

struct MicroFixture {
  MicroFixture() : db(BuildTpchLike()) {
    stats = DatabaseStats::Collect(db);
    est = std::make_unique<CardinalityEstimator>(&db, &stats);
    cost = std::make_unique<CostModel>(est.get());
    VocabularyOptions vo;
    auto v = Vocabulary::Build(db, vo);
    LSG_CHECK(v.ok());
    vocab.emplace(std::move(v).value());
  }
  Database db;
  DatabaseStats stats;
  std::unique_ptr<CardinalityEstimator> est;
  std::unique_ptr<CostModel> cost;
  std::optional<Vocabulary> vocab;
};

MicroFixture& Fixture() {
  static MicroFixture* f = new MicroFixture();
  return *f;
}

void BM_FsmMaskComputation(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile());
  // Advance into a WHERE clause where masking is at its most complex.
  int lineitem = f.db.catalog().FindTable("lineitem");
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kFrom)));
  LSG_CHECK_OK(fsm.Step(f.vocab->table_token_id(lineitem)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kSelect)));
  LSG_CHECK_OK(fsm.Step(f.vocab->column_token_id(lineitem, 0)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kWhere)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm.ValidActions());
  }
}
BENCHMARK(BM_FsmMaskComputation);

// SPJ-profile twins of BM_FsmMaskComputation / BM_RandomWalkEpisode: the
// same mask-heavy WHERE position, and whole mask-driven episodes
// (ValidActions + Step every token).

void BM_FsmMaskInterpreted(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::SpjOnly());
  int lineitem = f.db.catalog().FindTable("lineitem");
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kFrom)));
  LSG_CHECK_OK(fsm.Step(f.vocab->table_token_id(lineitem)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kSelect)));
  LSG_CHECK_OK(fsm.Step(f.vocab->column_token_id(lineitem, 0)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kWhere)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm.ValidActions());
  }
}
BENCHMARK(BM_FsmMaskInterpreted);

void BM_FsmWalkEpisodeInterpreted(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::SpjOnly());
  Rng rng(1);
  for (auto _ : state) {
    auto q = RandomWalkQuery(&fsm, &rng);
    LSG_CHECK(q.ok());
    benchmark::DoNotOptimize(q->type);
  }
}
BENCHMARK(BM_FsmWalkEpisodeInterpreted);

void BM_RandomWalkEpisode(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile());
  Rng rng(1);
  for (auto _ : state) {
    auto q = RandomWalkQuery(&fsm, &rng);
    LSG_CHECK(q.ok());
    benchmark::DoNotOptimize(q->type);
  }
}
BENCHMARK(BM_RandomWalkEpisode);

void BM_ExecutorJoinFilter(benchmark::State& state) {
  MicroFixture& f = Fixture();
  Executor exec(&f.db);
  SelectQuery q;
  q.tables = {f.db.catalog().FindTable("lineitem"),
              f.db.catalog().FindTable("orders")};
  int li = q.tables[0];
  q.items.push_back({AggFunc::kNone, {li, 0}});
  Predicate p;
  p.column = {li, 4};  // l_quantity
  p.op = CompareOp::kLt;
  p.value = Value(int64_t{25});
  q.where.predicates.push_back(std::move(p));
  for (auto _ : state) {
    auto r = exec.ExecuteSelect(q, false);
    LSG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->cardinality);
  }
}
BENCHMARK(BM_ExecutorJoinFilter);

void BM_ExecutorGroupBy(benchmark::State& state) {
  MicroFixture& f = Fixture();
  Executor exec(&f.db);
  SelectQuery q;
  int li = f.db.catalog().FindTable("lineitem");
  q.tables = {li};
  q.items.push_back({AggFunc::kNone, {li, 7}});  // l_returnflag
  q.group_by.push_back({li, 7});
  q.having = HavingClause{AggFunc::kSum, {li, 4}, CompareOp::kGt,
                          Value(int64_t{100})};
  for (auto _ : state) {
    auto r = exec.ExecuteSelect(q, false);
    LSG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->cardinality);
  }
}
BENCHMARK(BM_ExecutorGroupBy);

void BM_CardinalityEstimate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  SelectQuery q;
  int li = f.db.catalog().FindTable("lineitem");
  q.tables = {li, f.db.catalog().FindTable("orders")};
  q.items.push_back({AggFunc::kNone, {li, 0}});
  Predicate p;
  p.column = {li, 4};
  p.op = CompareOp::kLt;
  p.value = Value(int64_t{25});
  q.where.predicates.push_back(std::move(p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.est->EstimateSelect(q, nullptr));
  }
}
BENCHMARK(BM_CardinalityEstimate);

void BM_CostEstimate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  SelectQuery q;
  int li = f.db.catalog().FindTable("lineitem");
  q.tables = {li};
  q.items.push_back({AggFunc::kMax, {li, 5}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cost->SelectCost(q));
  }
}
BENCHMARK(BM_CostEstimate);

// --- feedback plumbing: cache + incremental prefix estimates ------------
//
// The three BM_EnvEpisode* variants replay the same recorded episodes
// (a repeated-constraint workload: identical queries recur across
// iterations) through a SqlGenEnvironment, isolating how the per-step
// feedback is computed:
//   FullEstimates        every step re-walks the whole AST
//   CachedEstimates      AST-fingerprint cache in front of the full walk
//   IncrementalEstimates O(1) running prefix state (the default)

const std::vector<std::vector<int>>& RecordedEpisodes() {
  static const std::vector<std::vector<int>>* kEpisodes = [] {
    MicroFixture& f = Fixture();
    auto* eps = new std::vector<std::vector<int>>;
    // Full profile: joins, subqueries and wide WHERE clauses, where the
    // full re-walk is at its most expensive.
    GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::Full());
    for (int i = 0; i < 32; ++i) {
      Rng rng(1000 + i);
      std::vector<int> actions;
      fsm.Reset();
      LSG_CHECK(RecordedRandomWalk(&fsm, &rng, &actions).ok());
      eps->push_back(std::move(actions));
    }
    return eps;
  }();
  return *kEpisodes;
}

void EnvEpisodeBench(benchmark::State& state, bool incremental, bool cached) {
  MicroFixture& f = Fixture();
  const auto& episodes = RecordedEpisodes();
  FeedbackCache cache;
  EnvironmentOptions eo;
  eo.profile = QueryProfile::Full();  // matches RecordedEpisodes()
  eo.incremental_prefix_estimates = incremental;
  eo.feedback_cache = cached ? &cache : nullptr;
  SqlGenEnvironment env(&f.db, &*f.vocab, f.est.get(), f.cost.get(),
                        Constraint::Range(ConstraintMetric::kCardinality, 5,
                                          1000000),
                        eo);
  size_t i = 0;
  uint64_t steps = 0;
  for (auto _ : state) {
    const std::vector<int>& actions = episodes[i++ % episodes.size()];
    env.Reset();
    for (int a : actions) {
      auto r = env.Step(a);
      LSG_CHECK(r.ok());
      benchmark::DoNotOptimize(r->metric);
      ++steps;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}

void BM_EnvEpisodeFullEstimates(benchmark::State& state) {
  EnvEpisodeBench(state, /*incremental=*/false, /*cached=*/false);
}
BENCHMARK(BM_EnvEpisodeFullEstimates);

void BM_EnvEpisodeCachedEstimates(benchmark::State& state) {
  EnvEpisodeBench(state, /*incremental=*/false, /*cached=*/true);
}
BENCHMARK(BM_EnvEpisodeCachedEstimates);

void BM_EnvEpisodeIncrementalEstimates(benchmark::State& state) {
  EnvEpisodeBench(state, /*incremental=*/true, /*cached=*/false);
}
BENCHMARK(BM_EnvEpisodeIncrementalEstimates);

// The feedback computation alone (no FSM / policy overhead) on the same
// repeated workload: what MetricOf costs without and with the cache.

const std::vector<QueryAst>& RecordedAsts() {
  static const std::vector<QueryAst>* kAsts = [] {
    MicroFixture& f = Fixture();
    auto* asts = new std::vector<QueryAst>;
    GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::Full());
    for (const std::vector<int>& actions : RecordedEpisodes()) {
      fsm.Reset();
      auto ast = ReplayActions(&fsm, actions, nullptr);
      LSG_CHECK(ast.ok());
      asts->push_back(std::move(ast).value());
    }
    return asts;
  }();
  return *kAsts;
}

void BM_FeedbackRepeatedFull(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const auto& asts = RecordedAsts();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.est->EstimateCardinality(asts[i++ % asts.size()]));
  }
}
BENCHMARK(BM_FeedbackRepeatedFull);

void BM_FeedbackRepeatedCached(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const auto& asts = RecordedAsts();
  FeedbackCache cache;
  size_t i = 0;
  for (auto _ : state) {
    const QueryAst& ast = asts[i++ % asts.size()];
    uint64_t key = cache.Key(ast, FeedbackKind::kCardinality);
    std::optional<double> hit = cache.Lookup(key);
    if (!hit.has_value()) {
      hit = f.est->EstimateCardinality(ast);
      cache.Insert(key, *hit);
    }
    benchmark::DoNotOptimize(*hit);
  }
}
BENCHMARK(BM_FeedbackRepeatedCached);

// Raw cache path: fingerprint + lookup of a warm entry. Compare against
// BM_CardinalityEstimate (the full walk a hit avoids).
void BM_FeedbackCacheHit(benchmark::State& state) {
  MicroFixture& f = Fixture();
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>();
  int li = f.db.catalog().FindTable("lineitem");
  ast.select->tables = {li, f.db.catalog().FindTable("orders")};
  ast.select->items.push_back({AggFunc::kNone, {li, 0}});
  Predicate p;
  p.column = {li, 4};
  p.op = CompareOp::kLt;
  p.value = Value(int64_t{25});
  ast.select->where.predicates.push_back(std::move(p));

  FeedbackCache cache;
  cache.Insert(cache.Key(ast, FeedbackKind::kCardinality),
               f.est->EstimateCardinality(ast));
  for (auto _ : state) {
    uint64_t key = cache.Key(ast, FeedbackKind::kCardinality);
    auto hit = cache.Lookup(key);
    LSG_CHECK(hit.has_value());
    benchmark::DoNotOptimize(*hit);
  }
}
BENCHMARK(BM_FeedbackCacheHit);

void BM_LstmStepOneHot(benchmark::State& state) {
  MicroFixture& f = Fixture();
  Rng rng(3);
  LstmStack lstm(f.vocab->size() + 1, 30, 2, 0.f, &rng);
  LstmStack::State st = lstm.InitialState();
  int token = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lstm.Step(token % f.vocab->size(), &st, nullptr, false, &rng));
    ++token;
  }
}
BENCHMARK(BM_LstmStepOneHot);

void BM_PolicyEpisodeWithBackward(benchmark::State& state) {
  MicroFixture& f = Fixture();
  NetworkOptions no;
  PolicyNetwork net(f.vocab->size(), no);
  Rng rng(5);
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile());
  for (auto _ : state) {
    fsm.Reset();
    auto ep = net.BeginEpisode(true);
    std::vector<double> adv;
    while (!fsm.done()) {
      const auto& probs = net.NextDistribution(&ep, fsm.ValidActions());
      int a = net.SampleAction(probs, &rng);
      net.RecordAction(&ep, a);
      LSG_CHECK_OK(fsm.Step(a));
      adv.push_back(0.1);
    }
    (void)fsm.TakeAst();
    net.AccumulateGradients(ep, adv, 0.01);
    benchmark::DoNotOptimize(ep.actions.size());
  }
}
BENCHMARK(BM_PolicyEpisodeWithBackward);

void BM_VocabularyBuild(benchmark::State& state) {
  MicroFixture& f = Fixture();
  VocabularyOptions vo;
  for (auto _ : state) {
    auto v = Vocabulary::Build(f.db, vo);
    LSG_CHECK(v.ok());
    benchmark::DoNotOptimize(v->size());
  }
}
BENCHMARK(BM_VocabularyBuild);

void BM_StatsCollect(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DatabaseStats::Collect(f.db));
  }
}
BENCHMARK(BM_StatsCollect);

}  // namespace
}  // namespace lsg

// BENCHMARK_MAIN plus the repo-wide `--json OUT` convention: the flag is
// translated into google-benchmark's --benchmark_out=OUT (json format), so
// every bench binary shares one way to ask for machine-readable results.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      storage.push_back("--benchmark_out_format=json");
      ++i;
    } else {
      storage.push_back(argv[i]);
    }
  }
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int pargc = static_cast<int>(args.size());
  benchmark::Initialize(&pargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
