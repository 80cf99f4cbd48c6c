#include "sql/database.h"

#include <cmath>
#include <cstdlib>
#include <optional>

#include "bufpool/stored_table.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "exec/operator.h"
#include "obs/flight_recorder.h"
#include "obs/introspection.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace mlcs {

namespace {

/// Registers a 1-argument numeric builtin computing fn over doubles.
void RegisterNumericFn(udf::UdfRegistry* registry, const char* name,
                       double (*fn)(double)) {
  udf::ScalarUdfEntry entry;
  entry.name = name;
  entry.return_type = TypeId::kDouble;
  entry.has_return_type = true;
  entry.fn = [fn, name = std::string(name)](
                 const std::vector<ColumnPtr>& args,
                 size_t /*num_rows*/) -> Result<ColumnPtr> {
    if (args.size() != 1) {
      return Status::InvalidArgument(name + " takes exactly one argument");
    }
    MLCS_ASSIGN_OR_RETURN(std::vector<double> data,
                          args[0]->ToDoubleVector());
    for (auto& v : data) v = fn(v);
    ColumnPtr out = Column::FromDouble(std::move(data));
    if (args[0]->has_nulls()) {
      for (size_t i = 0; i < args[0]->size(); ++i) {
        if (args[0]->IsNull(i)) out->SetNull(i);
      }
    }
    return out;
  };
  (void)registry->RegisterScalar(std::move(entry));
}

/// Registers a 1-argument string builtin.
void RegisterStringFn(udf::UdfRegistry* registry, const char* name,
                      std::string (*fn)(std::string_view), TypeId out_type) {
  udf::ScalarUdfEntry entry;
  entry.name = name;
  entry.return_type = out_type;
  entry.has_return_type = true;
  entry.fn = [fn, out_type, name = std::string(name)](
                 const std::vector<ColumnPtr>& args,
                 size_t /*num_rows*/) -> Result<ColumnPtr> {
    if (args.size() != 1) {
      return Status::InvalidArgument(name + " takes exactly one argument");
    }
    if (args[0]->type() != TypeId::kVarchar) {
      return Status::TypeMismatch(name + " requires a VARCHAR argument");
    }
    ColumnPtr out = Column::Make(out_type);
    out->Reserve(args[0]->size());
    for (size_t i = 0; i < args[0]->size(); ++i) {
      if (args[0]->IsNull(i)) {
        out->AppendNull();
        continue;
      }
      std::string transformed = fn(args[0]->str_data()[i]);
      if (out_type == TypeId::kVarchar) {
        out->AppendString(std::move(transformed));
      } else {
        MLCS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(transformed));
        out->AppendInt64(v);
      }
    }
    return out;
  };
  (void)registry->RegisterScalar(std::move(entry));
}

}  // namespace

Database::Database() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  cache_hits_ = registry.GetCounter("mlcs.plan_cache.hits");
  cache_misses_ = registry.GetCounter("mlcs.plan_cache.misses");
  cache_stale_ = registry.GetCounter("mlcs.plan_cache.stale");
  cache_evictions_ = registry.GetCounter("mlcs.plan_cache.evictions");
  cache_entries_ = registry.GetGauge("mlcs.plan_cache.entries");
  executor_ = std::make_unique<sql::Executor>(&catalog_, &udfs_);
  RegisterBuiltinFunctions();
}

Database::~Database() {
  // Release this database's contribution to the shared entries gauge.
  ClearPlanCache();
}

void Database::RegisterBuiltinFunctions() {
  RegisterNumericFn(&udfs_, "abs", [](double v) { return std::fabs(v); });
  RegisterNumericFn(&udfs_, "sqrt", [](double v) { return std::sqrt(v); });
  RegisterNumericFn(&udfs_, "floor", [](double v) { return std::floor(v); });
  RegisterNumericFn(&udfs_, "ceil", [](double v) { return std::ceil(v); });
  RegisterNumericFn(&udfs_, "round", [](double v) { return std::round(v); });
  RegisterNumericFn(&udfs_, "ln", [](double v) { return std::log(v); });
  RegisterNumericFn(&udfs_, "exp", [](double v) { return std::exp(v); });
  RegisterStringFn(
      &udfs_, "lower",
      [](std::string_view s) { return ToLower(s); }, TypeId::kVarchar);
  RegisterStringFn(
      &udfs_, "upper",
      [](std::string_view s) { return ToUpper(s); }, TypeId::kVarchar);
  RegisterStringFn(
      &udfs_, "length",
      [](std::string_view s) { return std::to_string(s.size()); },
      TypeId::kInt64);
  // mlcs_metrics() / mlcs_trace(): SQL-queryable observability tables.
  MLCS_CHECK_OK(obs::RegisterIntrospectionFunctions(&udfs_));
}

void Database::set_exec_policy(const MorselPolicy& policy) {
  // Prepared plans capture the policy inside their operator closures, so a
  // policy change invalidates everything cached.
  ClearPlanCache();
  executor_->set_policy(policy);
}

void Database::set_optimizer_enabled(bool enabled) {
  ClearPlanCache();
  executor_->set_optimizer_enabled(enabled);
}

void Database::ClearPlanCache() {
  MutexLock lock(&cache_mu_);
  cache_entries_->Add(-static_cast<int64_t>(plan_cache_.size()));
  plan_cache_.clear();
  lru_.clear();
}

size_t Database::plan_cache_size() const {
  MutexLock lock(&cache_mu_);
  return plan_cache_.size();
}

Result<TablePtr> Database::Query(const std::string& sql) {
  // Root span for the whole statement; children (parse, plan, operators)
  // nest under it. Created when tracing is on OR the always-on flight
  // recorder is capturing (`force`: the ctor's own gate only checks the
  // tracing flag). No-ops down to two relaxed loads when both are off.
  std::optional<obs::TraceContext> trace;
  if (obs::TraceCaptureEnabled()) {
    trace.emplace("query: " + sql.substr(0, 120), /*force=*/true);
    trace->set_query_text(sql);
  }
  // Fast path: a resident, still-current plan for this exact text. Take a
  // strong reference under the lock, execute outside it (plans are const
  // and thread-safe).
  std::shared_ptr<const sql::PreparedSelect> cached;
  {
    MutexLock lock(&cache_mu_);
    auto it = plan_cache_.find(sql);
    if (it != plan_cache_.end()) {
      if (it->second.plan->catalog_version == catalog_.schema_version()) {
        cache_hits_->Add(1);
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        cached = it->second.plan;
      } else {
        // DDL moved the schema since this was planned: discard, re-plan.
        cache_stale_->Add(1);
        cache_entries_->Add(-1);
        lru_.erase(it->second.lru_pos);
        plan_cache_.erase(it);
      }
    }
  }
  if (cached != nullptr) {
    auto result = sql::Executor::RunPrepared(*cached);
    MaybeCapturePlanText(trace, *cached);
    return result;
  }

  sql::Statement stmt;
  {
    obs::ScopedSpan parse_span("sql.parse");
    MLCS_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(sql));
  }
  if (std::get_if<sql::SelectStatement>(&stmt) == nullptr) {
    // Only SELECTs are cacheable — DDL/DML must re-execute every time.
    return executor_->Execute(stmt);
  }

  cache_misses_->Add(1);
  MLCS_ASSIGN_OR_RETURN(std::shared_ptr<const sql::PreparedSelect> plan,
                        executor_->Prepare(std::move(stmt)));
  {
    MutexLock lock(&cache_mu_);
    auto it = plan_cache_.find(sql);
    if (it == plan_cache_.end()) {
      while (plan_cache_.size() >= kPlanCacheCapacity && !lru_.empty()) {
        cache_evictions_->Add(1);
        cache_entries_->Add(-1);
        plan_cache_.erase(lru_.back());
        lru_.pop_back();
      }
      lru_.push_front(sql);
      plan_cache_.emplace(sql, CacheEntry{plan, lru_.begin()});
      cache_entries_->Add(1);
    } else {
      // A concurrent caller planned the same text; keep the fresher plan.
      if (plan->catalog_version >= it->second.plan->catalog_version) {
        it->second.plan = plan;
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    }
  }
  auto result = sql::Executor::RunPrepared(*plan);
  MaybeCapturePlanText(trace, *plan);
  return result;
}

void Database::MaybeCapturePlanText(
    std::optional<obs::TraceContext>& trace,
    const sql::PreparedSelect& plan) {
  // Plan text is rendered lazily and only for queries that already
  // crossed the slow threshold — a fast query pays nothing beyond the
  // ElapsedMs clock read. The trace dtor (which fires after this returns)
  // carries the text into the slow-query log.
  if (!trace.has_value() || !trace->active()) return;
  if (trace->ElapsedMs() < obs::FlightRecorder::SlowQueryThresholdMs()) {
    return;
  }
  if (plan.root != nullptr) {
    trace->set_plan_text(exec::RenderOperatorTree(*plan.root));
  }
}

Result<TablePtr> Database::Run(const std::string& script) {
  MLCS_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                        sql::ParseScript(script));
  if (statements.empty()) {
    return Status::InvalidArgument("empty SQL script");
  }
  TablePtr last;
  for (const auto& stmt : statements) {
    MLCS_ASSIGN_OR_RETURN(last, executor_->Execute(stmt));
  }
  return last;
}

Connection Database::Connect() { return Connection(this); }

namespace {

/// Rows per on-disk block when saving; `MLCS_BLOCK_ROWS` overrides for
/// tests (small values force multi-block tables on tiny data).
size_t SaveBlockRows() {
  const char* env = std::getenv("MLCS_BLOCK_ROWS");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) return static_cast<size_t>(v);
  }
  return bufpool::StoredTable::kDefaultBlockRows;
}

}  // namespace

Status Database::SaveTo(const std::string& dir) const {
  MLCS_RETURN_IF_ERROR(MakeDirs(dir));
  size_t block_rows = SaveBlockRows();
  std::string manifest = "mlcs-catalog-v2\n";
  for (const std::string& name : catalog_.ListTables()) {
    // ReadTable: saving must not promote stored entries to resident.
    MLCS_ASSIGN_OR_RETURN(TablePtr table, catalog_.ReadTable(name));
    MLCS_RETURN_IF_ERROR(
        bufpool::StoredTable::Write(*table, dir + "/" + name, block_rows));
    manifest += name + "\n";
  }
  // Catalog manifest last — a crash mid-save leaves the old catalog (if
  // any) intact and pointing only at fully-written table directories.
  return AtomicWriteFile(dir + "/catalog.manifest", manifest.data(),
                         manifest.size());
}

Status Database::LoadFrom(const std::string& dir) {
  if (!FileExists(dir + "/catalog.manifest")) {
    return Status::IoError("'" + dir + "' has no catalog.manifest");
  }
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        ReadFileBytes(dir + "/catalog.manifest"));
  std::string manifest(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size());
  std::vector<std::string> lines = SplitString(manifest, '\n');
  if (lines.empty() || Trim(lines[0]) != "mlcs-catalog-v2") {
    return Status::ParseError("'" + dir +
                              "' has an unrecognized catalog.manifest");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string name = Trim(lines[i]);
    if (name.empty()) continue;
    // Blocks are opened lazily: attaching validates headers and zone maps
    // but materializes no payloads until a query needs them.
    MLCS_ASSIGN_OR_RETURN(std::shared_ptr<bufpool::StoredTable> stored,
                          bufpool::StoredTable::Open(dir + "/" + name));
    MLCS_RETURN_IF_ERROR(catalog_.AttachStoredTable(name, std::move(stored)));
  }
  return Status::OK();
}

}  // namespace mlcs
