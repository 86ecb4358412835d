// Creates and populates the normalized catalog schema inside the SQL
// database: tables for tables/schemas/catalogs/principals plus the
// per-table satellites (privileges, constraints, lineage, properties).
// Population is deterministic from the workload seed, and each table's
// declared blob bytes are fitted so the assembled rich object's size
// matches UcTraceWorkload::valueSizeFor — the two experiments (Object vs
// KV) then serve byte-identical objects through different paths.
#pragma once

#include <cstdint>
#include <string>

#include "storage/database.hpp"
#include "workload/uc_trace.hpp"

namespace dcache::richobject {

struct CatalogStoreConfig {
  std::uint64_t tablesPerSchema = 50;
  std::uint64_t schemasPerCatalog = 20;
  std::uint64_t catalogsPerMetastore = 10;
  std::uint64_t principals = 200;
  std::uint64_t maxPrivilegesPerTable = 5;
  std::uint64_t maxConstraintsPerTable = 3;
  std::uint64_t maxLineagePerTable = 4;
  std::uint64_t maxPropertiesPerTable = 4;
  std::uint64_t seed = 17;
};

class CatalogStore {
 public:
  CatalogStore(storage::Database& db, const workload::UcTraceWorkload& trace,
               CatalogStoreConfig config = {});

  /// DDL: create all catalog tables (idempotent).
  void createSchemas();

  /// Bulk-load the dataset (no cost accounting — experiment setup), then
  /// compact the storage engines so the first scans find a sorted run.
  void populate();

  [[nodiscard]] std::uint64_t tableCount() const noexcept {
    return trace_->keyCount();
  }
  [[nodiscard]] std::int64_t schemaIdFor(std::uint64_t tableId) const noexcept;
  [[nodiscard]] std::int64_t catalogIdFor(std::int64_t schemaId) const noexcept;
  [[nodiscard]] const CatalogStoreConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] storage::Database& db() noexcept { return *db_; }
  [[nodiscard]] const workload::UcTraceWorkload& trace() const noexcept {
    return *trace_;
  }

  /// Deterministic satellite-row counts for a table (shared with the
  /// assembler's size expectations and the tests).
  [[nodiscard]] std::uint64_t privilegeCount(std::uint64_t tableId) const;
  [[nodiscard]] std::uint64_t constraintCount(std::uint64_t tableId) const;
  [[nodiscard]] std::uint64_t lineageCount(std::uint64_t tableId) const;
  [[nodiscard]] std::uint64_t propertyCount(std::uint64_t tableId) const;

  /// Securable-id strings used in the privileges table.
  [[nodiscard]] static std::string tableSecurable(std::uint64_t tableId);
  [[nodiscard]] static std::string schemaSecurable(std::int64_t schemaId);
  [[nodiscard]] static std::string catalogSecurable(std::int64_t catalogId);

 private:
  [[nodiscard]] std::uint64_t satelliteCount(std::uint64_t tableId,
                                             std::uint64_t salt,
                                             std::uint64_t maxCount) const;

  storage::Database* db_;
  const workload::UcTraceWorkload* trace_;
  CatalogStoreConfig config_;
};

}  // namespace dcache::richobject
