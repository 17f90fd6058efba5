#include "sql/executor.h"

#include <algorithm>

#include "transform/foj.h"
#include "transform/hsplit.h"
#include "transform/merge.h"
#include "transform/split.h"

namespace morph::sql {

std::string ResultSet::ToString() const {
  if (columns.empty()) return message;
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (size_t c = 0; c < columns.size(); ++c) {
      std::string cell = c < row.size() ? row[c].ToString() : "";
      widths[c] = std::max(widths[c], cell.size());
      line.push_back(std::move(cell));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& line) {
    out += "|";
    for (size_t c = 0; c < columns.size(); ++c) {
      out += " " + line[c] + std::string(widths[c] - line[c].size(), ' ') + " |";
    }
    out += "\n";
  };
  std::string sep = "+";
  for (size_t c = 0; c < columns.size(); ++c) {
    sep += std::string(widths[c] + 2, '-') + "+";
  }
  sep += "\n";
  out += sep;
  emit_row(columns);
  out += sep;
  for (const auto& line : cells) emit_row(line);
  out += sep;
  if (!message.empty()) out += message + "\n";
  return out;
}

Session::~Session() {
  if (txn_ != nullptr) (void)db_->Abort(txn_);
  if (transform_) {
    transform_->coordinator->RequestAbort();
    transform_->coordinator->RequestFinish();
    (void)transform_->future.wait_for(std::chrono::seconds(30));
  }
}

Result<ResultSet> Session::Execute(const std::string& input) {
  MORPH_ASSIGN_OR_RETURN(Statement stmt, Parser::Parse(input));
  return Execute(stmt);
}

Result<ResultSet> Session::ExecuteScript(const std::string& input) {
  MORPH_ASSIGN_OR_RETURN(std::vector<Statement> stmts,
                         Parser::ParseScript(input));
  ResultSet last;
  last.message = "OK (empty script)";
  for (const Statement& stmt : stmts) {
    MORPH_ASSIGN_OR_RETURN(last, Execute(stmt));
  }
  return last;
}

Result<ResultSet> Session::Execute(const Statement& statement) {
  return std::visit(
      [&](const auto& stmt) -> Result<ResultSet> {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, CreateTableStmt>) {
          return Create(stmt);
        } else if constexpr (std::is_same_v<T, DropTableStmt>) {
          return Drop(stmt);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return Insert(stmt);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return Update(stmt);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return Delete(stmt);
        } else if constexpr (std::is_same_v<T, SelectStmt>) {
          return Select(stmt);
        } else if constexpr (std::is_same_v<T, BeginStmt>) {
          if (txn_ != nullptr) {
            return Status::InvalidArgument("transaction already open");
          }
          txn_ = db_->Begin();
          ResultSet rs;
          rs.message = "BEGIN";
          return rs;
        } else if constexpr (std::is_same_v<T, CommitStmt>) {
          if (txn_ == nullptr) return Status::InvalidArgument("no transaction");
          const Status st = db_->Commit(txn_);
          txn_ = nullptr;
          if (!st.ok()) return st;
          ResultSet rs;
          rs.message = "COMMIT";
          return rs;
        } else if constexpr (std::is_same_v<T, RollbackStmt>) {
          if (txn_ == nullptr) return Status::InvalidArgument("no transaction");
          const Status st = db_->Abort(txn_);
          txn_ = nullptr;
          MORPH_RETURN_NOT_OK(st);
          ResultSet rs;
          rs.message = "ROLLBACK";
          return rs;
        } else if constexpr (std::is_same_v<T, ShowTablesStmt>) {
          return ShowTables();
        } else if constexpr (std::is_same_v<T, ShowTransformStmt>) {
          return ShowTransform();
        } else if constexpr (std::is_same_v<T, TransformControlStmt>) {
          return ControlTransform(stmt);
        } else {
          return StartTransform(statement);
        }
      },
      statement);
}

Result<std::shared_ptr<storage::Table>> Session::TableOrError(
    const std::string& name) {
  auto table = db_->catalog()->GetByName(name);
  if (table == nullptr) return Status::NotFound("no table named " + name);
  return table;
}

Result<ResultSet> Session::WithTxn(
    const std::function<Result<ResultSet>(const engine::TxnPtr&)>& body) {
  if (txn_ != nullptr) {
    auto result = body(txn_);
    if (!result.ok()) {
      // Strict 2PL: a failed statement poisons the explicit transaction.
      (void)db_->Abort(txn_);
      txn_ = nullptr;
      return Status(result.status().code(),
                    result.status().message() + " (transaction rolled back)");
    }
    return result;
  }
  engine::TxnPtr txn = db_->Begin();
  auto result = body(txn);
  if (!result.ok()) {
    if (!txn->finished()) (void)db_->Abort(txn);
    return result;
  }
  MORPH_RETURN_NOT_OK(db_->Commit(txn));
  return result;
}

Result<ResultSet> Session::Create(const CreateTableStmt& stmt) {
  MORPH_ASSIGN_OR_RETURN(Schema schema,
                         Schema::Make(stmt.columns, stmt.key_columns));
  MORPH_RETURN_NOT_OK(db_->CreateTable(stmt.table, std::move(schema)).status());
  ResultSet rs;
  rs.message = "CREATE TABLE " + stmt.table;
  return rs;
}

Result<ResultSet> Session::Drop(const DropTableStmt& stmt) {
  MORPH_RETURN_NOT_OK(db_->DropTable(stmt.table));
  ResultSet rs;
  rs.message = "DROP TABLE " + stmt.table;
  return rs;
}

Result<ResultSet> Session::Insert(const InsertStmt& stmt) {
  MORPH_ASSIGN_OR_RETURN(auto table, TableOrError(stmt.table));
  const Schema& schema = table->schema();
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    MORPH_ASSIGN_OR_RETURN(positions, schema.IndicesOf(stmt.columns));
  }
  return WithTxn([&](const engine::TxnPtr& txn) -> Result<ResultSet> {
    size_t inserted = 0;
    for (const auto& values : stmt.rows) {
      if (values.size() != positions.size()) {
        return Status::InvalidArgument(
            "VALUES arity does not match the column list");
      }
      Row row = Row::Nulls(schema.num_columns());
      for (size_t i = 0; i < positions.size(); ++i) {
        row[positions[i]] = values[i];
      }
      MORPH_RETURN_NOT_OK(db_->Insert(txn, table.get(), std::move(row)));
      inserted++;
    }
    ResultSet rs;
    rs.message = std::to_string(inserted) + " row(s) inserted";
    return rs;
  });
}

Result<bool> Session::Matches(const Schema& schema,
                              const std::vector<Condition>& where,
                              const Row& row) {
  for (const Condition& cond : where) {
    auto idx = schema.IndexOf(cond.column);
    if (!idx) return Status::InvalidArgument("no such column: " + cond.column);
    if (!cond.Eval(row[*idx])) return false;
  }
  return true;
}

Result<std::vector<Row>> Session::CandidateKeys(
    storage::Table* table, const std::vector<Condition>& where) {
  const Schema& schema = table->schema();
  // Point lookup when every key column is bound by equality.
  std::vector<Row> keys;
  {
    std::vector<Value> key_values(schema.key_indices().size());
    size_t bound = 0;
    for (const Condition& cond : where) {
      if (cond.op != Condition::Op::kEq) continue;
      auto idx = schema.IndexOf(cond.column);
      if (!idx) return Status::InvalidArgument("no such column: " + cond.column);
      for (size_t k = 0; k < schema.key_indices().size(); ++k) {
        if (schema.key_indices()[k] == *idx) {
          key_values[k] = cond.literal;
          bound++;
        }
      }
    }
    if (bound == schema.key_indices().size() && bound > 0) {
      keys.push_back(Row(std::move(key_values)));
      return keys;
    }
  }
  // Fuzzy scan for candidates; callers re-validate under locks.
  Status status;
  table->FuzzyScan([&](const storage::Record& rec) {
    if (!status.ok()) return;
    auto match = Matches(schema, where, rec.row);
    if (!match.ok()) {
      status = match.status();
      return;
    }
    if (*match) keys.push_back(schema.KeyOf(rec.row));
  });
  MORPH_RETURN_NOT_OK(status);
  return keys;
}

Result<ResultSet> Session::Update(const UpdateStmt& stmt) {
  MORPH_ASSIGN_OR_RETURN(auto table, TableOrError(stmt.table));
  const Schema& schema = table->schema();
  std::vector<engine::ColumnUpdate> updates;
  for (const auto& [column, value] : stmt.sets) {
    auto idx = schema.IndexOf(column);
    if (!idx) return Status::InvalidArgument("no such column: " + column);
    updates.push_back({*idx, value});
  }
  MORPH_ASSIGN_OR_RETURN(std::vector<Row> keys,
                         CandidateKeys(table.get(), stmt.where));
  return WithTxn([&](const engine::TxnPtr& txn) -> Result<ResultSet> {
    size_t updated = 0;
    for (const Row& key : keys) {
      // Lock and re-validate: the fuzzy candidate may have changed.
      auto row = db_->Read(txn, table.get(), key);
      if (row.status().IsNotFound()) continue;
      MORPH_RETURN_NOT_OK(row.status());
      MORPH_ASSIGN_OR_RETURN(bool match, Matches(schema, stmt.where, *row));
      if (!match) continue;
      MORPH_RETURN_NOT_OK(db_->Update(txn, table.get(), key, updates));
      updated++;
    }
    ResultSet rs;
    rs.message = std::to_string(updated) + " row(s) updated";
    return rs;
  });
}

Result<ResultSet> Session::Delete(const DeleteStmt& stmt) {
  MORPH_ASSIGN_OR_RETURN(auto table, TableOrError(stmt.table));
  const Schema& schema = table->schema();
  MORPH_ASSIGN_OR_RETURN(std::vector<Row> keys,
                         CandidateKeys(table.get(), stmt.where));
  return WithTxn([&](const engine::TxnPtr& txn) -> Result<ResultSet> {
    size_t deleted = 0;
    for (const Row& key : keys) {
      auto row = db_->Read(txn, table.get(), key);
      if (row.status().IsNotFound()) continue;
      MORPH_RETURN_NOT_OK(row.status());
      MORPH_ASSIGN_OR_RETURN(bool match, Matches(schema, stmt.where, *row));
      if (!match) continue;
      MORPH_RETURN_NOT_OK(db_->Delete(txn, table.get(), key));
      deleted++;
    }
    ResultSet rs;
    rs.message = std::to_string(deleted) + " row(s) deleted";
    return rs;
  });
}

Result<ResultSet> Session::Select(const SelectStmt& stmt) {
  MORPH_ASSIGN_OR_RETURN(auto table, TableOrError(stmt.table));
  const Schema& schema = table->schema();
  std::vector<size_t> projection;
  ResultSet rs;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      projection.push_back(i);
      rs.columns.push_back(schema.column(i).name);
    }
  } else {
    MORPH_ASSIGN_OR_RETURN(projection, schema.IndicesOf(stmt.columns));
    rs.columns = stmt.columns;
  }
  MORPH_ASSIGN_OR_RETURN(std::vector<Row> keys,
                         CandidateKeys(table.get(), stmt.where));
  return WithTxn([&](const engine::TxnPtr& txn) -> Result<ResultSet> {
    for (const Row& key : keys) {
      if (stmt.limit && rs.rows.size() >= *stmt.limit) break;
      auto row = db_->Read(txn, table.get(), key);
      if (row.status().IsNotFound()) continue;
      MORPH_RETURN_NOT_OK(row.status());
      MORPH_ASSIGN_OR_RETURN(bool match, Matches(schema, stmt.where, *row));
      if (!match) continue;
      rs.rows.push_back(row->Project(projection));
    }
    // Deterministic output order for tooling and tests.
    std::sort(rs.rows.begin(), rs.rows.end());
    rs.message = std::to_string(rs.rows.size()) + " row(s)";
    return rs;
  });
}

Result<ResultSet> Session::ShowTables() {
  ResultSet rs;
  rs.columns = {"table", "rows"};
  std::vector<std::string> names = db_->catalog()->TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    auto table = db_->catalog()->GetByName(name);
    if (table == nullptr) continue;
    rs.rows.push_back(Row({name, static_cast<int64_t>(table->size())}));
  }
  rs.message = std::to_string(rs.rows.size()) + " table(s)";
  return rs;
}

std::string Session::ReapTransform() {
  if (!transform_) return "";
  if (transform_->future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return "";
  }
  auto stats = transform_->future.get();
  std::string outcome;
  if (!stats.ok()) {
    outcome = transform_->description + " failed: " + stats.status().ToString();
  } else if (stats->completed) {
    outcome = transform_->description + " completed (" +
              std::to_string(stats->log_records_processed) +
              " log records replayed, sync pause " +
              std::to_string(stats->sync_latch_nanos / 1000) + " us)";
  } else {
    outcome = transform_->description + " aborted: " + stats->abort_reason;
  }
  transform_.reset();
  return outcome;
}

Result<ResultSet> Session::ShowTransform() {
  ResultSet rs;
  const std::string reaped = ReapTransform();
  if (!reaped.empty()) {
    rs.message = reaped;
    return rs;
  }
  if (!transform_) {
    rs.message = "no transformation running";
    return rs;
  }
  using Phase = transform::TransformCoordinator::Phase;
  std::string phase;
  switch (transform_->coordinator->phase()) {
    case Phase::kIdle:
      phase = "idle";
      break;
    case Phase::kPreparing:
      phase = "preparing";
      break;
    case Phase::kPopulating:
      phase = "populating (fuzzy copy)";
      break;
    case Phase::kPropagating:
      phase = "propagating log";
      break;
    case Phase::kSynchronizing:
      phase = "synchronizing";
      break;
    case Phase::kDraining:
      phase = "draining old transactions";
      break;
    case Phase::kCompleted:
      phase = "completed";
      break;
    case Phase::kAborted:
      phase = "aborted";
      break;
  }
  rs.message = transform_->description + ": " + phase + " (priority " +
               std::to_string(transform_->coordinator->priority()) + ")";
  return rs;
}

transform::TransformConfig Session::ConfigFrom(
    const TransformOptions& options) const {
  transform::TransformConfig config;
  if (options.priority) config.priority = *options.priority;
  if (options.strategy) config.strategy = *options.strategy;
  config.continuous = options.continuous;
  if (options.keep_sources) config.drop_sources = false;
  config.on_lag = transform::OnLag::kBoostPriority;
  return config;
}

Result<ResultSet> Session::StartTransform(const Statement& statement) {
  const std::string reaped = ReapTransform();
  if (transform_) {
    return Status::Busy("a transformation is already running (" +
                        transform_->description + ")");
  }
  RunningTransform running;
  transform::TransformConfig config;

  if (const auto* join = std::get_if<TransformJoinStmt>(&statement)) {
    transform::FojSpec spec;
    spec.r_table = join->r_table;
    spec.s_table = join->s_table;
    spec.r_join_column = join->r_column;
    spec.s_join_column = join->s_column;
    spec.target_table = join->target;
    MORPH_ASSIGN_OR_RETURN(auto rules, transform::FojRules::Make(db_, spec));
    running.rules = std::shared_ptr<transform::OperatorRules>(std::move(rules));
    running.description = "TRANSFORM JOIN into " + join->target;
    config = ConfigFrom(join->options);
  } else if (const auto* split = std::get_if<TransformSplitStmt>(&statement)) {
    transform::SplitSpec spec;
    spec.t_table = split->table;
    spec.r_columns = split->r_columns;
    spec.s_columns = split->s_columns;
    spec.split_columns = split->split_columns;
    spec.r_name = split->r_name;
    spec.s_name = split->s_name;
    spec.assume_consistent = !split->options.check_consistency;
    spec.reuse_source_as_r = split->options.reuse_source;
    MORPH_ASSIGN_OR_RETURN(auto rules, transform::SplitRules::Make(db_, spec));
    running.rules = std::shared_ptr<transform::OperatorRules>(std::move(rules));
    running.description = "TRANSFORM SPLIT of " + split->table;
    config = ConfigFrom(split->options);
  } else if (const auto* merge = std::get_if<TransformMergeStmt>(&statement)) {
    transform::MergeSpec spec;
    spec.r_table = merge->r_table;
    spec.s_table = merge->s_table;
    spec.target_table = merge->target;
    MORPH_ASSIGN_OR_RETURN(auto rules, transform::MergeRules::Make(db_, spec));
    running.rules = std::shared_ptr<transform::OperatorRules>(std::move(rules));
    running.description = "TRANSFORM MERGE into " + merge->target;
    config = ConfigFrom(merge->options);
  } else if (const auto* hsplit = std::get_if<TransformHsplitStmt>(&statement)) {
    transform::HorizontalSplitSpec spec;
    spec.t_table = hsplit->table;
    spec.r_name = hsplit->r_name;
    spec.s_name = hsplit->s_name;
    spec.predicate.column = hsplit->predicate.column;
    spec.predicate.operand = hsplit->predicate.literal;
    switch (hsplit->predicate.op) {
      case Condition::Op::kLt:
        spec.predicate.comparator = transform::RoutePredicate::Comparator::kLt;
        break;
      case Condition::Op::kLe:
        spec.predicate.comparator = transform::RoutePredicate::Comparator::kLe;
        break;
      case Condition::Op::kGt:
        spec.predicate.comparator = transform::RoutePredicate::Comparator::kGt;
        break;
      case Condition::Op::kGe:
        spec.predicate.comparator = transform::RoutePredicate::Comparator::kGe;
        break;
      case Condition::Op::kEq:
        spec.predicate.comparator = transform::RoutePredicate::Comparator::kEq;
        break;
      case Condition::Op::kNe:
        spec.predicate.comparator = transform::RoutePredicate::Comparator::kNe;
        break;
    }
    MORPH_ASSIGN_OR_RETURN(auto rules,
                           transform::HorizontalSplitRules::Make(db_, spec));
    running.rules = std::shared_ptr<transform::OperatorRules>(std::move(rules));
    running.description = "TRANSFORM HSPLIT of " + hsplit->table;
    config = ConfigFrom(hsplit->options);
  } else {
    return Status::Internal("not a transformation statement");
  }

  running.coordinator = std::make_unique<transform::TransformCoordinator>(
      db_, running.rules, config);
  transform::TransformCoordinator* coordinator = running.coordinator.get();
  running.future =
      std::async(std::launch::async, [coordinator] { return coordinator->Run(); });
  ResultSet rs;
  rs.message = running.description + " started";
  if (!reaped.empty()) rs.message += "\n(previous: " + reaped + ")";
  transform_ = std::move(running);
  return rs;
}

Result<ResultSet> Session::ControlTransform(const TransformControlStmt& stmt) {
  if (!transform_) return Status::NotFound("no transformation running");
  if (stmt.what == TransformControlStmt::What::kAbort) {
    transform_->coordinator->RequestAbort();
  } else {
    transform_->coordinator->RequestFinish();
    transform_->coordinator->SetSyncHold(false);
  }
  transform_->future.wait();
  ResultSet rs;
  rs.message = ReapTransform();
  return rs;
}

}  // namespace morph::sql
