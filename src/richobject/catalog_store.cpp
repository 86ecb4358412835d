#include "richobject/catalog_store.hpp"

#include <array>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dcache::richobject {
namespace {

using storage::Column;
using storage::ColumnType;
using storage::Row;
using storage::TableSchema;
using storage::Value;

constexpr std::array<std::string_view, 4> kActions = {"SELECT", "MODIFY",
                                                      "ALL", "OWN"};
constexpr std::array<std::string_view, 3> kConstraintKinds = {
    "primary_key", "foreign_key", "check"};
constexpr std::array<std::string_view, 2> kLineageKinds = {"read",
                                                           "transform"};
constexpr std::array<std::string_view, 2> kFormats = {"delta", "parquet"};

}  // namespace

CatalogStore::CatalogStore(storage::Database& db,
                           const workload::UcTraceWorkload& trace,
                           CatalogStoreConfig config)
    : db_(&db), trace_(&trace), config_(config) {}

std::int64_t CatalogStore::schemaIdFor(std::uint64_t tableId) const noexcept {
  return static_cast<std::int64_t>(tableId / config_.tablesPerSchema);
}

std::int64_t CatalogStore::catalogIdFor(std::int64_t schemaId) const noexcept {
  return schemaId / static_cast<std::int64_t>(config_.schemasPerCatalog);
}

std::string CatalogStore::tableSecurable(std::uint64_t tableId) {
  return "tbl" + std::to_string(tableId);
}
std::string CatalogStore::schemaSecurable(std::int64_t schemaId) {
  return "sch" + std::to_string(schemaId);
}
std::string CatalogStore::catalogSecurable(std::int64_t catalogId) {
  return "cat" + std::to_string(catalogId);
}

std::uint64_t CatalogStore::satelliteCount(std::uint64_t tableId,
                                           std::uint64_t salt,
                                           std::uint64_t maxCount) const {
  if (maxCount == 0) return 0;
  const std::uint64_t h =
      util::hashCombine(util::hashU64(tableId ^ config_.seed), salt);
  return h % (maxCount + 1);
}

std::uint64_t CatalogStore::privilegeCount(std::uint64_t tableId) const {
  return 1 + satelliteCount(tableId, 1, config_.maxPrivilegesPerTable - 1);
}
std::uint64_t CatalogStore::constraintCount(std::uint64_t tableId) const {
  return satelliteCount(tableId, 2, config_.maxConstraintsPerTable);
}
std::uint64_t CatalogStore::lineageCount(std::uint64_t tableId) const {
  return satelliteCount(tableId, 3, config_.maxLineagePerTable);
}
std::uint64_t CatalogStore::propertyCount(std::uint64_t tableId) const {
  return satelliteCount(tableId, 4, config_.maxPropertiesPerTable);
}

void CatalogStore::createSchemas() {
  TableSchema tables(
      "tables",
      {Column{"id", ColumnType::kInt}, Column{"schema_id", ColumnType::kInt},
       Column{"name", ColumnType::kString},
       Column{"owner", ColumnType::kString},
       Column{"format", ColumnType::kString},
       Column{"data_bytes", ColumnType::kInt},
       Column{"version", ColumnType::kInt}},
      0, {1});
  tables.withPayloadSizeColumn("data_bytes");
  db_->createTable(std::move(tables));

  db_->createTable(TableSchema(
      "schemas",
      {Column{"id", ColumnType::kInt}, Column{"catalog_id", ColumnType::kInt},
       Column{"name", ColumnType::kString},
       Column{"owner", ColumnType::kString}},
      0, {1}));

  db_->createTable(TableSchema(
      "catalogs",
      {Column{"id", ColumnType::kInt},
       Column{"metastore_id", ColumnType::kInt},
       Column{"name", ColumnType::kString},
       Column{"owner", ColumnType::kString}},
      0, {1}));

  db_->createTable(TableSchema(
      "principals",
      {Column{"id", ColumnType::kInt}, Column{"name", ColumnType::kString},
       Column{"kind", ColumnType::kString}},
      0));

  db_->createTable(TableSchema(
      "privileges",
      {Column{"id", ColumnType::kInt},
       Column{"securable_id", ColumnType::kString},
       Column{"principal", ColumnType::kString},
       Column{"action", ColumnType::kString}},
      0, {1}));

  db_->createTable(TableSchema(
      "constraints",
      {Column{"id", ColumnType::kInt}, Column{"table_id", ColumnType::kInt},
       Column{"kind", ColumnType::kString},
       Column{"definition", ColumnType::kString}},
      0, {1}));

  db_->createTable(TableSchema(
      "lineage",
      {Column{"id", ColumnType::kInt}, Column{"table_id", ColumnType::kInt},
       Column{"upstream_id", ColumnType::kInt},
       Column{"kind", ColumnType::kString}},
      0, {1}));

  db_->createTable(TableSchema(
      "properties",
      {Column{"id", ColumnType::kInt}, Column{"table_id", ColumnType::kInt},
       Column{"key", ColumnType::kString},
       Column{"value", ColumnType::kString}},
      0, {1}));
}

void CatalogStore::populate() {
  util::Pcg32 rng(config_.seed, 5);
  const std::uint64_t numTables = trace_->keyCount();

  auto principalName = [&](std::uint64_t i) {
    return "user" + std::to_string(i % config_.principals);
  };

  // Principals.
  for (std::uint64_t p = 0; p < config_.principals; ++p) {
    db_->loadRow("principals",
                 Row{{static_cast<std::int64_t>(p), principalName(p),
                      std::string(p % 8 == 0 ? "group" : "user")}});
  }

  // Hierarchy: catalogs and schemas covering all tables.
  const std::int64_t numSchemas =
      schemaIdFor(numTables == 0 ? 0 : numTables - 1) + 1;
  const std::int64_t numCatalogs = catalogIdFor(numSchemas - 1) + 1;
  for (std::int64_t c = 0; c < numCatalogs; ++c) {
    db_->loadRow("catalogs", Row{{c, std::int64_t{0},
                                  "catalog_" + std::to_string(c),
                                  principalName(static_cast<std::uint64_t>(c))}});
    // Catalog-level grants: these are what downward inheritance resolves.
    db_->loadRow("privileges",
                 Row{{static_cast<std::int64_t>(1000000 + c),
                      catalogSecurable(c), principalName(rng.next() % 64),
                      std::string("SELECT")}});
  }
  for (std::int64_t s = 0; s < numSchemas; ++s) {
    db_->loadRow("schemas",
                 Row{{s, catalogIdFor(s), "schema_" + std::to_string(s),
                      principalName(static_cast<std::uint64_t>(s) % 128)}});
  }

  // Tables and satellites.
  std::int64_t privId = 0;
  std::int64_t consId = 0;
  std::int64_t linId = 0;
  std::int64_t propId = 0;
  for (std::uint64_t t = 0; t < numTables; ++t) {
    const std::uint64_t objectSize = trace_->valueSizeFor(t);
    // The blob carries whatever the structured satellites don't: target the
    // workload's object size so Object and KV variants serve equal bytes.
    const std::uint64_t structured =
        privilegeCount(t) * 32 + constraintCount(t) * 48 +
        lineageCount(t) * 24 + propertyCount(t) * 40 + 160;
    const std::int64_t blob =
        objectSize > structured
            ? static_cast<std::int64_t>(objectSize - structured)
            : 0;

    db_->loadRow(
        "tables",
        Row{{static_cast<std::int64_t>(t), schemaIdFor(t),
             "table_" + std::to_string(t), principalName(rng.next() % 256),
             std::string(kFormats[t % kFormats.size()]), blob,
             std::int64_t{1}}});

    const std::string securable = tableSecurable(t);
    for (std::uint64_t i = 0; i < privilegeCount(t); ++i) {
      db_->loadRow("privileges",
                   Row{{privId++, securable, principalName(rng.next() % 256),
                        std::string(kActions[rng.next() % kActions.size()])}});
    }
    for (std::uint64_t i = 0; i < constraintCount(t); ++i) {
      db_->loadRow(
          "constraints",
          Row{{consId++, static_cast<std::int64_t>(t),
               std::string(kConstraintKinds[i % kConstraintKinds.size()]),
               "cols(" + std::to_string(rng.next() % 12) + ")"}});
    }
    for (std::uint64_t i = 0; i < lineageCount(t); ++i) {
      db_->loadRow("lineage",
                   Row{{linId++, static_cast<std::int64_t>(t),
                        static_cast<std::int64_t>(rng.next() % numTables),
                        std::string(kLineageKinds[i % kLineageKinds.size()])}});
    }
    for (std::uint64_t i = 0; i < propertyCount(t); ++i) {
      db_->loadRow("properties",
                   Row{{propId++, static_cast<std::int64_t>(t),
                        "prop" + std::to_string(i),
                        "value" + std::to_string(rng.next() % 1000)}});
    }
  }
  db_->compact();
}

}  // namespace dcache::richobject
