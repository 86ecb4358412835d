#include "richobject/assembler.hpp"

#include <algorithm>

#include "storage/row.hpp"

namespace dcache::richobject {

using storage::RowView;
using storage::Value;

Assembler::Assembler(CatalogStore& store, AppCosts costs)
    : store_(&store), costs_(costs) {}

Assembler::GetTableResult Assembler::getTable(sim::Node& appNode,
                                              std::uint64_t tableId) {
  GetTableResult result;
  RichTableObject& object = object_;
  object.clear();
  storage::Database& db = store_->db();
  const std::size_t budget =
      std::clamp<std::size_t>(store_->trace().statementsFor(tableId), 1, 8);

  // Each statement's rows are views valid until the next statement, so
  // every step copies what it needs into the object before the next issue.
  auto issue = [&](std::string_view sql, std::span<const Value> params)
      -> storage::Database::QueryResult {
    appNode.charge(sim::CpuComponent::kRequestPrep, costs_.requestPrepMicros);
    auto r = db.exec(appNode, sql, params);
    ++result.statementsIssued;
    result.latencyMicros += r.latencyMicros;
    if (r.ok) result.bytesRead += r.storedBytes;
    return r;
  };

  const auto id = static_cast<std::int64_t>(tableId);

  // 1. The table row itself (always issued).
  {
    const Value params[] = {Value{id}};
    const auto r = issue("SELECT * FROM tables WHERE id = ?", params);
    if (!r.ok || r.rows.empty()) return result;  // unknown table
    const RowView& row = r.rows.front();
    TableInfo& table = object.table;
    table.id = row.intAt(0);
    table.schemaId = row.intAt(1);
    table.name.assign(row.stringAt(2));
    table.owner.assign(row.stringAt(3));
    table.format.assign(row.stringAt(4));
    table.dataBytes = row.intAt(5);
    table.version = row.intAt(6);
  }

  // 2. Parent schema.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{object.table.schemaId}};
    const auto r = issue("SELECT * FROM schemas WHERE id = ?", params);
    if (r.ok && !r.rows.empty()) {
      const RowView& row = r.rows.front();
      object.schema.id = row.intAt(0);
      object.schema.catalogId = row.intAt(1);
      object.schema.name.assign(row.stringAt(2));
      object.schema.owner.assign(row.stringAt(3));
    }
  }

  // 3. Parent catalog.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{object.schema.catalogId}};
    const auto r = issue("SELECT * FROM catalogs WHERE id = ?", params);
    if (r.ok && !r.rows.empty()) {
      const RowView& row = r.rows.front();
      object.catalog.id = row.intAt(0);
      object.catalog.metastoreId = row.intAt(1);
      object.catalog.name.assign(row.stringAt(2));
      object.catalog.owner.assign(row.stringAt(3));
    }
  }

  auto addPrivileges = [&](const storage::Database::QueryResult& r,
                           SecurableLevel level) {
    if (!r.ok) return;
    for (const RowView& row : r.rows) {
      Privilege& grant = object.privileges.emplace_back();
      grant.level = level;
      grant.principal.assign(row.stringAt(2));
      grant.action.assign(row.stringAt(3));
    }
  };

  // 4. Table-level privileges.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{CatalogStore::tableSecurable(tableId)}};
    addPrivileges(
        issue("SELECT * FROM privileges WHERE securable_id = ?", params),
        SecurableLevel::kTable);
  }

  // 5. Inherited catalog-level privileges (downward inheritance source).
  if (result.statementsIssued < budget) {
    const Value params[] = {
        Value{CatalogStore::catalogSecurable(object.catalog.id)}};
    addPrivileges(
        issue("SELECT * FROM privileges WHERE securable_id = ?", params),
        SecurableLevel::kCatalog);
  }

  // 6. Constraints.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{id}};
    const auto r =
        issue("SELECT * FROM constraints WHERE table_id = ?", params);
    if (r.ok) {
      for (const RowView& row : r.rows) {
        Constraint& constraint = object.constraints.emplace_back();
        constraint.kind.assign(row.stringAt(2));
        constraint.definition.assign(row.stringAt(3));
      }
    }
  }

  // 7. Lineage.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{id}};
    const auto r = issue("SELECT * FROM lineage WHERE table_id = ?", params);
    if (r.ok) {
      for (const RowView& row : r.rows) {
        LineageEdge& edge = object.lineage.emplace_back();
        edge.upstreamTableId = row.intAt(2);
        edge.kind.assign(row.stringAt(3));
      }
    }
  }

  // 8. Properties.
  if (result.statementsIssued < budget) {
    const Value params[] = {Value{id}};
    const auto r =
        issue("SELECT * FROM properties WHERE table_id = ?", params);
    if (r.ok) {
      for (const RowView& row : r.rows) {
        object.properties.emplace(row.stringAt(2), row.stringAt(3));
      }
    }
  }

  // Application logic: compose results, resolve inheritance, build the
  // object graph. Charged at the app server — this is the §5.4 point that
  // object caches save not just storage work but app work too.
  appNode.charge(
      sim::CpuComponent::kAppLogic,
      costs_.composePerStatementMicros *
              static_cast<double>(result.statementsIssued) +
          costs_.composePerByteMicros * static_cast<double>(result.bytesRead));

  result.ok = true;
  result.object = &object;
  return result;
}

double Assembler::updateTable(sim::Node& appNode, std::uint64_t tableId) {
  storage::Database& db = store_->db();
  appNode.charge(sim::CpuComponent::kRequestPrep, costs_.requestPrepMicros);
  const auto id = static_cast<std::int64_t>(tableId);
  // Version bump matches how the production service invalidates: rewrite
  // the row (blob and all) with a new version.
  const Value params[] = {Value{id}};
  const auto read =
      db.exec(appNode, "SELECT * FROM tables WHERE id = ?", params);
  double latency = read.latencyMicros;
  if (!read.ok || read.rows.empty()) return latency;
  // Read the version before the UPDATE: it invalidates the row view.
  const std::int64_t version = read.rows.front().intAt(6);

  appNode.charge(sim::CpuComponent::kRequestPrep, costs_.requestPrepMicros);
  const Value updateParams[] = {Value{version + 1}, Value{id}};
  auto write = db.exec(
      appNode, "UPDATE tables SET version = ? WHERE id = ?", updateParams);
  latency += write.latencyMicros;
  return latency;
}

}  // namespace dcache::richobject
