#include "storage/executor.hpp"

#include <algorithm>

namespace dcache::storage {
namespace {

[[nodiscard]] Value literalToValue(const std::string& literal,
                                   ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return static_cast<std::int64_t>(
          std::strtoll(literal.c_str(), nullptr, 10));
    case ColumnType::kDouble:
      return std::strtod(literal.c_str(), nullptr);
    case ColumnType::kString:
      return literal;
  }
  return literal;
}

[[nodiscard]] Value coerce(const Value& v, ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return valueToInt(v);
    case ColumnType::kDouble:
      if (const auto* d = std::get_if<double>(&v)) return *d;
      return static_cast<double>(valueToInt(v));
    case ColumnType::kString:
      return valueToString(v);
  }
  return v;
}

}  // namespace

std::optional<Value> Executor::resolve(const BoundRhs& rhs,
                                       std::span<const Value> params,
                                       ColumnType type) {
  if (rhs.literal) return literalToValue(*rhs.literal, type);
  if (rhs.paramIndex >= params.size()) return std::nullopt;
  return coerce(params[rhs.paramIndex], type);
}

Executor::Outcome Executor::run(const QueryPlan& plan,
                                std::span<const Value> params,
                                ExecTrace& trace) {
  switch (plan.kind) {
    case StatementKind::kSelect: return runSelect(plan, params, trace);
    case StatementKind::kInsert: return runInsert(plan, params, trace);
    case StatementKind::kUpdate: return runUpdate(plan, params, trace);
    case StatementKind::kDelete: return runDelete(plan, params, trace);
  }
  return Outcome{false, "unknown plan kind", {}, 0, 0};
}

void Executor::scanIndex(const TableSchema& schema, std::string_view column,
                         std::string_view value, ExecTrace& trace) {
  Database::indexPrefixTo(schema.name(), column, value, s_->prefix);
  const std::size_t prefixLength = s_->prefix.size();
  s_->pks.clear();
  db_->engineScanPrefix(s_->prefix, trace,
                        [&](std::string_view key, const StoredValue&) {
                          s_->pks.push_back(key.substr(prefixLength));
                          return true;
                        });
}

bool Executor::fetchPrimary(const TableAccessPlan& access,
                            std::span<const Value> params,
                            std::optional<std::uint64_t> limit,
                            ExecTrace& trace, std::string& error) {
  const TableSchema& schema = *access.schema;
  std::vector<FetchedRow>& out = s_->fetched;
  out.clear();

  // Residual filters decode only the columns they test.
  auto passesResidual = [&](const RowView& row) {
    for (const BoundCondition& cond : access.residual) {
      const ColumnType type = schema.columns()[cond.columnIndex].type;
      const auto want = resolve(cond.rhs, params, type);
      if (!want || !row.equals(cond.columnIndex, *want)) return false;
    }
    return true;
  };
  auto atLimit = [&] { return limit && out.size() >= *limit; };

  switch (access.path) {
    case AccessPath::kPointGet: {
      const ColumnType pkType =
          schema.columns()[schema.primaryKeyColumn()].type;
      const auto pkValue = resolve(access.key->rhs, params, pkType);
      if (!pkValue) {
        error = "missing parameter for key condition";
        return false;
      }
      valueTextTo(*pkValue, s_->text);
      const std::string_view pk = s_->text;
      Database::rowKeyTo(schema.name(), pk, s_->key);
      const StoredValue* stored = db_->engineGet(s_->key, trace);
      if (!stored) return true;  // no row: empty result, not an error
      const auto row = RowView::of(schema, stored->payload);
      if (!row) {
        error = "corrupt row for pk " + std::string(pk);
        return false;
      }
      if (passesResidual(*row)) {
        out.push_back(FetchedRow{pk, *row, stored->size});
      }
      return true;
    }
    case AccessPath::kIndexLookup: {
      const Column& column = schema.columns()[access.key->columnIndex];
      const auto keyValue = resolve(access.key->rhs, params, column.type);
      if (!keyValue) {
        error = "missing parameter for index condition";
        return false;
      }
      // Collect matching primary keys from the index, then fetch rows.
      valueTextTo(*keyValue, s_->text);
      scanIndex(schema, column.name, s_->text, trace);
      for (const std::string_view pk : s_->pks) {
        if (atLimit()) break;
        Database::rowKeyTo(schema.name(), pk, s_->key);
        const StoredValue* stored = db_->engineGet(s_->key, trace);
        if (!stored) continue;  // index entry raced a delete
        const auto row = RowView::of(schema, stored->payload);
        if (row && passesResidual(*row)) {
          out.push_back(FetchedRow{pk, *row, stored->size});
        }
      }
      return true;
    }
    case AccessPath::kTableScan: {
      Database::rowKeyTo(schema.name(), "", s_->prefix);  // the row prefix
      const std::size_t prefixLength = s_->prefix.size();
      bool corrupt = false;
      db_->engineScanPrefix(
          s_->prefix, trace,
          [&](std::string_view key, const StoredValue& stored) {
            if (atLimit()) return false;
            const auto row = RowView::of(schema, stored.payload);
            if (!row) {
              corrupt = true;
              return false;
            }
            if (passesResidual(*row)) {
              out.push_back(
                  FetchedRow{key.substr(prefixLength), *row, stored.size});
            }
            return true;
          });
      if (corrupt) {
        error = "corrupt row during scan of " + schema.name();
        return false;
      }
      return true;
    }
  }
  error = "unknown access path";
  return false;
}

bool Executor::fetchTargets(const TableAccessPlan& access,
                            std::span<const Value> params, ExecTrace& trace,
                            std::vector<OwnedRow>& out, std::string& error) {
  if (!fetchPrimary(access, params, std::nullopt, trace, error)) return false;
  out.reserve(s_->fetched.size());
  for (const FetchedRow& fetched : s_->fetched) {
    // RowView::of accepted these bytes, so decodeRow does too.
    out.push_back(OwnedRow{std::string(fetched.pk),
                           *decodeRow(*access.schema, fetched.row.bytes())});
  }
  return true;
}

void Executor::fetchJoinMatches(const JoinPlan& join, const Value& key,
                                ExecTrace& trace) {
  const TableSchema& schema = *join.schema;
  std::vector<RowView>& out = s_->joined;
  out.clear();
  valueTextTo(key, s_->joinText);

  switch (join.path) {
    case AccessPath::kPointGet: {
      Database::rowKeyTo(schema.name(), s_->joinText, s_->key);
      const StoredValue* stored = db_->engineGet(s_->key, trace);
      if (!stored) return;
      if (const auto row = RowView::of(schema, stored->payload)) {
        out.push_back(*row);
      }
      return;
    }
    case AccessPath::kIndexLookup: {
      scanIndex(schema, schema.columns()[join.rightColumn].name, s_->joinText,
                trace);
      for (const std::string_view pk : s_->pks) {
        Database::rowKeyTo(schema.name(), pk, s_->key);
        const StoredValue* stored = db_->engineGet(s_->key, trace);
        if (!stored) continue;
        if (const auto row = RowView::of(schema, stored->payload)) {
          out.push_back(*row);
        }
      }
      return;
    }
    case AccessPath::kTableScan: {
      Database::rowKeyTo(schema.name(), "", s_->prefix);
      db_->engineScanPrefix(
          s_->prefix, trace,
          [&](std::string_view, const StoredValue& stored) {
            const auto row = RowView::of(schema, stored.payload);
            if (row && row->equals(join.rightColumn, key)) {
              out.push_back(*row);
            }
            return true;
          });
      return;
    }
  }
}

Executor::Outcome Executor::runSelect(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  std::vector<RowView>& rows = s_->rows;
  rows.clear();
  // With a join the limit applies to joined output, so fetch unbounded.
  const auto primaryLimit = plan.join ? std::nullopt : plan.limit;
  if (!fetchPrimary(plan.primary, params, primaryLimit, trace,
                    outcome.error)) {
    return outcome;
  }
  const bool selectStar = plan.projection.empty();

  if (!selectStar) {
    std::vector<Column> columns;
    columns.reserve(plan.projection.size());
    for (const ProjectionItem& item : plan.projection) {
      const TableSchema& from =
          item.fromJoin ? *plan.join->schema : *plan.primary.schema;
      columns.push_back(from.columns()[item.column]);
    }
    s_->projection = TableSchema({}, std::move(columns), 0);
  }
  s_->built.clear();
  s_->builtEnds.clear();

  // A SELECT * row is the stored row itself; a projected row is encoded
  // into the scratch and viewed once every row is built.
  std::size_t emitted = 0;
  auto emit = [&](const FetchedRow& left, const RowView* right) {
    ++emitted;
    if (selectStar) {
      rows.push_back(left.row);
      outcome.storedBytes += left.storedSize;
      return;
    }
    Row projected;
    projected.values.reserve(plan.projection.size());
    for (const ProjectionItem& item : plan.projection) {
      if (item.fromJoin) {
        projected.values.push_back(right ? right->value(item.column)
                                         : Value{std::string{}});
      } else {
        projected.values.push_back(left.row.value(item.column));
      }
    }
    s_->built.append(encodeRow(s_->projection, projected));
    s_->builtEnds.push_back(s_->built.size());
  };
  auto full = [&] { return plan.limit && emitted >= *plan.limit; };

  for (const FetchedRow& left : s_->fetched) {
    if (full()) break;
    if (!plan.join) {
      emit(left, nullptr);
      continue;
    }
    fetchJoinMatches(*plan.join, left.row.value(plan.join->leftColumn),
                     trace);
    for (const RowView& right : s_->joined) {
      if (full()) break;
      emit(left, &right);
    }
  }
  std::size_t begin = 0;
  for (const std::size_t end : s_->builtEnds) {
    const std::string_view bytes =
        std::string_view(s_->built).substr(begin, end - begin);
    rows.push_back(*RowView::of(s_->projection, bytes));
    begin = end;
  }
  outcome.rows = rows;
  outcome.ok = true;
  return outcome;
}

bool Executor::writeRow(const TableSchema& schema, const Row& row,
                        ExecTrace& trace) {
  const std::string pk =
      valueToString(row.values[schema.primaryKeyColumn()]);
  StoredValue stored = StoredValue::of(encodeRow(schema, row));
  stored.size += declaredPayloadBytes(schema, row);
  if (!db_->enginePut(Database::rowKey(schema.name(), pk), std::move(stored),
                      trace)) {
    return false;
  }
  for (const std::size_t col : schema.indexedColumns()) {
    const std::string key =
        Database::indexKey(schema.name(), schema.columns()[col].name,
                           valueToString(row.values[col]), pk);
    db_->enginePut(key, StoredValue::sized(0), trace);
  }
  return true;
}

void Executor::deleteRowIndexes(const TableSchema& schema, const Row& row,
                                std::string_view pk, ExecTrace& trace) {
  for (const std::size_t col : schema.indexedColumns()) {
    const std::string key =
        Database::indexKey(schema.name(), schema.columns()[col].name,
                           valueToString(row.values[col]), pk);
    db_->engineDelete(key, trace);
  }
}

Executor::Outcome Executor::runInsert(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  Row row;
  row.values.reserve(schema.columnCount());
  for (std::size_t c = 0; c < plan.insertValues.size(); ++c) {
    const auto& spec = plan.insertValues[c];
    const auto value =
        resolve(BoundRhs{spec.literal, spec.paramIndex}, params,
                schema.columns()[c].type);
    if (!value) {
      outcome.error = "missing parameter in INSERT";
      return outcome;
    }
    row.values.push_back(*value);
  }
  if (!writeRow(schema, row, trace)) {
    outcome.error = "write conflict";
    return outcome;
  }
  outcome.ok = true;
  outcome.rowsAffected = 1;
  return outcome;
}

Executor::Outcome Executor::runUpdate(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  std::vector<OwnedRow> targets;
  if (!fetchTargets(plan.primary, params, trace, targets, outcome.error)) {
    return outcome;
  }
  for (OwnedRow& target : targets) {
    // Remove index entries for columns about to change, then rewrite.
    for (const auto& [col, rhs] : plan.assignments) {
      const auto value = resolve(rhs, params, schema.columns()[col].type);
      if (!value) {
        outcome.error = "missing parameter in SET";
        return outcome;
      }
      if (schema.hasIndexOn(col) &&
          !valueEquals(target.row.values[col], *value)) {
        db_->engineDelete(
            Database::indexKey(schema.name(), schema.columns()[col].name,
                               valueToString(target.row.values[col]),
                               target.pk),
            trace);
      }
      target.row.values[col] = *value;
    }
    if (writeRow(schema, target.row, trace)) ++outcome.rowsAffected;
  }
  outcome.ok = true;
  return outcome;
}

Executor::Outcome Executor::runDelete(const QueryPlan& plan,
                                      std::span<const Value> params,
                                      ExecTrace& trace) {
  Outcome outcome;
  const TableSchema& schema = *plan.primary.schema;
  std::vector<OwnedRow> targets;
  if (!fetchTargets(plan.primary, params, trace, targets, outcome.error)) {
    return outcome;
  }
  for (const OwnedRow& target : targets) {
    deleteRowIndexes(schema, target.row, target.pk, trace);
    if (db_->engineDelete(Database::rowKey(schema.name(), target.pk),
                          trace)) {
      ++outcome.rowsAffected;
    }
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace dcache::storage
