// Plan executor: runs a QueryPlan against the database's engine-level API.
// Every row touched flows through Database::engineGet/Put/Delete, so all
// CPU, block-cache, disk and replication costs are charged where the work
// happens — the executor adds no accounting of its own.
//
// Reads hand out RowViews: a SELECT * row is a view of the stored bytes,
// and a projected or joined row is encoded into the Database's reused
// ExecScratch. UPDATE and DELETE decode their targets into owned rows
// before their first write, because a write may move the stored bytes and
// engine keys those views point into.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "storage/database.hpp"
#include "storage/planner.hpp"
#include "storage/row.hpp"

namespace dcache::storage {

class Executor {
 public:
  Executor(Database& db, ExecScratch& scratch) : db_(&db), s_(&scratch) {}

  struct Outcome {
    bool ok = false;
    std::string error;
    std::span<const RowView> rows;   // SELECT results, in the scratch
    std::uint64_t storedBytes = 0;   // see Database::QueryResult
    std::uint64_t rowsAffected = 0;  // writes
  };

  Outcome run(const QueryPlan& plan, std::span<const Value> params,
              ExecTrace& trace);

 private:
  /// A write target decoded out of storage.
  struct OwnedRow {
    std::string pk;
    Row row;
  };

  /// Resolve a bound RHS into a typed Value for the given column.
  [[nodiscard]] static std::optional<Value> resolve(const BoundRhs& rhs,
                                                    std::span<const Value> params,
                                                    ColumnType type);

  /// The primary keys of `schema`'s rows whose indexed `column` holds
  /// `value`, from the index, into s_->pks. They are views of the engines'
  /// key bytes, valid until the next write.
  void scanIndex(const TableSchema& schema, std::string_view column,
                 std::string_view value, ExecTrace& trace);
  /// Fetch rows of the primary table per the access plan into
  /// s_->fetched (residual filters applied, limit honoured when set).
  bool fetchPrimary(const TableAccessPlan& access, std::span<const Value> params,
                    std::optional<std::uint64_t> limit, ExecTrace& trace,
                    std::string& error);
  /// fetchPrimary, decoded into owned rows for a write statement.
  bool fetchTargets(const TableAccessPlan& access,
                    std::span<const Value> params, ExecTrace& trace,
                    std::vector<OwnedRow>& out, std::string& error);

  /// Fetch right-table rows matching `key` for a join into s_->joined.
  void fetchJoinMatches(const JoinPlan& join, const Value& key,
                        ExecTrace& trace);

  bool writeRow(const TableSchema& schema, const Row& row, ExecTrace& trace);
  void deleteRowIndexes(const TableSchema& schema, const Row& row,
                        std::string_view pk, ExecTrace& trace);

  Outcome runSelect(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);
  Outcome runInsert(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);
  Outcome runUpdate(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);
  Outcome runDelete(const QueryPlan& plan, std::span<const Value> params,
                    ExecTrace& trace);

  Database* db_;
  ExecScratch* s_;
};

}  // namespace dcache::storage
