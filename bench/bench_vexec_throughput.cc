// Vectorized-execution throughput bench: the reference tuple-at-a-time
// Executor vs the columnar batch engine (src/vexec/) on the bundled
// datasets at 1x / 100x / 1000x row scale and 1–8 morsel workers. Each
// setting runs a fixed representative query mix — filtered scans, an FK
// hash join, and a join + GROUP BY — built generically from the dataset's
// catalog so all three benchmarks exercise the same shapes. Cardinalities
// are cross-checked between engines on every measurement.
//
// Emitted as one JSON row per (dataset, scale, query, engine, workers):
//
//   {"bench": "vexec_throughput", "dataset": "TPC-H", "row_scale": 100, ...}
//
// Wall-clock guard: only TPC-H runs the 1000x point (the reference engine
// is the bottleneck there); the skip is logged, not silent. On a 1-CPU
// host the worker sweep is expected flat — the speedup comes from the
// typed batch kernels, not parallelism.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "exec/executor.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace bench {
namespace {

struct BenchQuery {
  std::string name;
  SelectQuery q;
};

int LargestTableIdx(const Database& db) {
  int best = 0;
  for (size_t i = 1; i < db.num_tables(); ++i) {
    if (db.tables()[i].num_rows() > db.tables()[best].num_rows()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// First non-PK INT64 column of `t` (PK as fallback): the filter target.
int FilterColumn(const Table& t) {
  int pk = t.schema().PrimaryKeyColumn();
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().column(c).type == DataType::kInt64 &&
        static_cast<int>(c) != pk) {
      return static_cast<int>(c);
    }
  }
  return pk >= 0 ? pk : 0;
}

/// A non-null probe value drawn from `frac` of the way through the column,
/// so comparison predicates get mid-range selectivity instead of matching
/// nothing or everything.
Value ProbeValue(const Table& t, int col, double frac) {
  size_t start = static_cast<size_t>(static_cast<double>(t.num_rows()) * frac);
  for (size_t r = start; r < t.num_rows(); ++r) {
    Value v = t.GetValue(r, col);
    if (!v.is_null()) return v;
  }
  return Value(static_cast<int64_t>(0));
}

Predicate ValuePred(int table_idx, int column_idx, CompareOp op, Value v) {
  Predicate p;
  p.kind = PredicateKind::kValue;
  p.column = ColumnRef{table_idx, column_idx};
  p.op = op;
  p.value = std::move(v);
  return p;
}

/// The FK edge whose referencing (fact) side is largest — the most
/// join-work per probe the dataset offers.
const ForeignKey* BiggestFkEdge(const Database& db) {
  const ForeignKey* best = nullptr;
  size_t best_rows = 0;
  for (const ForeignKey& fk : db.catalog().foreign_keys()) {
    const Table* from = db.FindTable(fk.from_table);
    if (from != nullptr && from->num_rows() > best_rows) {
      best_rows = from->num_rows();
      best = &fk;
    }
  }
  return best;
}

/// First string-ish column (group-by target), any column as fallback.
int GroupColumn(const Table& t) {
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    DataType ty = t.schema().column(c).type;
    if (ty == DataType::kString || ty == DataType::kCategorical) {
      return static_cast<int>(c);
    }
  }
  return 0;
}

/// The representative mix, built from the catalog: two filtered scans over
/// the largest table, the biggest FK hash join, and that join grouped.
std::vector<BenchQuery> BuildQueries(const Database& db) {
  std::vector<BenchQuery> out;
  const int big = LargestTableIdx(db);
  const Table& bt = db.tables()[big];
  const int fc = FilterColumn(bt);

  {
    BenchQuery b;
    b.name = "scan_filter";
    b.q.tables = {big};
    b.q.items = {SelectItem{AggFunc::kNone, ColumnRef{big, 0}}};
    b.q.where.predicates.push_back(
        ValuePred(big, fc, CompareOp::kLe, ProbeValue(bt, fc, 0.5)));
    out.push_back(std::move(b));
  }
  {
    // Two conjunctive predicates: amplifies per-row interpretation
    // overhead in the reference engine vs one typed kernel pass each.
    BenchQuery b;
    b.name = "scan_filter2";
    b.q.tables = {big};
    b.q.items = {SelectItem{AggFunc::kNone, ColumnRef{big, 0}}};
    b.q.where.predicates.push_back(
        ValuePred(big, fc, CompareOp::kLe, ProbeValue(bt, fc, 0.75)));
    b.q.where.predicates.push_back(
        ValuePred(big, fc, CompareOp::kGt, ProbeValue(bt, fc, 0.25)));
    b.q.where.connectors = {BoolConn::kAnd};
    out.push_back(std::move(b));
  }

  const ForeignKey* fk = BiggestFkEdge(db);
  if (fk != nullptr) {
    const int from = db.catalog().FindTable(fk->from_table);
    const int to = db.catalog().FindTable(fk->to_table);
    {
      BenchQuery b;
      b.name = "fk_join";
      b.q.tables = {from, to};
      b.q.items = {SelectItem{AggFunc::kNone, ColumnRef{from, 0}}};
      out.push_back(std::move(b));
    }
    {
      BenchQuery b;
      b.name = "join_group";
      b.q.tables = {from, to};
      b.q.items = {SelectItem{AggFunc::kCount, ColumnRef{from, 0}}};
      const int gc = GroupColumn(db.tables()[to]);
      b.q.group_by = {ColumnRef{to, gc}};
      out.push_back(std::move(b));
    }
  }
  return out;
}

struct Timing {
  double ns_per_query = 0;
  uint64_t cardinality = 0;
};

Timing TimeEngine(const ExecutionBackend& eng, const char* engine,
                  const SelectQuery& q, int reps) {
  Timing t;
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) {
    // materialize=false is the execution-grounded feedback configuration:
    // training consumes the true cardinality, not the value column. (The
    // differential tests and the fuzz oracle cover the materializing
    // path.)
    auto r = eng.ExecuteSelect(q, /*materialize_first_column=*/false);
    LSG_CHECK(r.ok()) << engine << ": " << r.status().ToString();
    t.cardinality = r->cardinality;
  }
  t.ns_per_query = sw.ElapsedSeconds() * 1e9 / reps;
  return t;
}

void EmitRow(JsonRowWriter* json, const std::string& dataset,
             double row_scale, size_t total_rows, const std::string& query,
             const char* engine, int workers, int reps, const Timing& t,
             double speedup) {
  std::string row = StrFormat(
      "{\"bench\": \"vexec_throughput\", \"dataset\": \"%s\", "
      "\"row_scale\": %.0f, \"total_rows\": %zu, \"query\": \"%s\", "
      "\"engine\": \"%s\", \"workers\": %d, \"reps\": %d, "
      "\"ns_per_query\": %.0f, \"cardinality\": %llu, "
      "\"speedup_vs_reference\": %.2f}",
      dataset.c_str(), row_scale, total_rows, query.c_str(), engine, workers,
      reps, t.ns_per_query, static_cast<unsigned long long>(t.cardinality),
      speedup);
  std::printf("%s\n", row.c_str());
  std::fflush(stdout);
  if (json != nullptr) json->AddRow(std::move(row));
}

void RunDatasetAtScale(const std::string& dataset, double row_scale,
                       int reps, JsonRowWriter* json) {
  Database db = BuildDataset(dataset, row_scale);
  std::printf("-- %s @ %.0fx: %zu total rows, %d reps/query\n",
              dataset.c_str(), row_scale, db.TotalRows(), reps);
  Executor ref(&db);
  for (const BenchQuery& b : BuildQueries(db)) {
    Timing rt = TimeEngine(ref, "reference", b.q, reps);
    EmitRow(json, dataset, row_scale, db.TotalRows(), b.name, "reference", 1,
            reps, rt, 1.0);
    for (int workers : {1, 2, 4, 8}) {
      vexec::VexecOptions vo;
      vo.workers = workers;
      vexec::VectorizedEngine vec(&db, vo);
      Timing vt = TimeEngine(vec, "vectorized", b.q, reps);
      LSG_CHECK(vt.cardinality == rt.cardinality)
          << dataset << "/" << b.name << ": vectorized=" << vt.cardinality
          << " reference=" << rt.cardinality;
      EmitRow(json, dataset, row_scale, db.TotalRows(), b.name, "vectorized",
              workers, reps, vt, rt.ns_per_query / vt.ns_per_query);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main(int argc, char** argv) {
  using namespace lsg;
  using namespace lsg::bench;

  JsonRowWriter json(JsonOutPathFromArgs(argc, argv));
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded bench setup
  const bool quick = std::getenv("LSG_QUICK") != nullptr;

  PrintHeader("Vectorized execution throughput (vexec vs reference)");
  std::printf("queries verified cross-engine on every measurement; "
              "worker sweep is morsel parallelism (flat on 1-CPU hosts)\n");

  for (const std::string& dataset : DatasetNames()) {
    for (double row_scale : {1.0, 100.0, 1000.0}) {
      if (row_scale == 1000.0 && dataset != "TPC-H") {
        std::printf("-- %s @ 1000x skipped (wall-clock guard: the "
                    "reference engine dominates; TPC-H covers 10^6)\n",
                    dataset.c_str());
        continue;
      }
      int reps = row_scale >= 1000.0 ? 2 : (row_scale >= 100.0 ? 5 : 20);
      if (quick) {
        reps = 1;
        if (row_scale >= 1000.0) {
          std::printf("-- %s @ 1000x skipped (LSG_QUICK)\n", dataset.c_str());
          continue;
        }
      }
      RunDatasetAtScale(dataset, row_scale, reps, &json);
    }
  }
  return 0;
}
