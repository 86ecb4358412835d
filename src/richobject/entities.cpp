#include "richobject/entities.hpp"

#include <algorithm>

namespace dcache::richobject {

bool PropertyMap::emplace(std::string_view key, std::string_view value) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const value_type& entry, std::string_view k) {
        return entry.first < k;
      });
  if (it != entries_.end() && it->first == key) return false;
  entries_.emplace(it, key, value);
  return true;
}

void RichTableObject::clear() noexcept {
  table.id = table.schemaId = table.dataBytes = table.version = 0;
  table.name.clear();
  table.owner.clear();
  table.format.clear();
  schema.id = schema.catalogId = 0;
  schema.name.clear();
  schema.owner.clear();
  catalog.id = catalog.metastoreId = 0;
  catalog.name.clear();
  catalog.owner.clear();
  privileges.clear();
  constraints.clear();
  lineage.clear();
  properties.clear();
}

std::string_view securableLevelName(SecurableLevel level) noexcept {
  switch (level) {
    case SecurableLevel::kCatalog: return "catalog";
    case SecurableLevel::kSchema: return "schema";
    case SecurableLevel::kTable: return "table";
  }
  return "unknown";
}

bool RichTableObject::allowed(std::string_view principal,
                              std::string_view action) const {
  // Ownership anywhere on the ancestry chain grants everything.
  if (table.owner == principal || schema.owner == principal ||
      catalog.owner == principal) {
    return true;
  }
  for (const Privilege& grant : privileges) {
    if (grant.principal != principal) continue;
    if (grant.action == action || grant.action == "ALL" ||
        grant.action == "OWN") {
      return true;  // grants inherit downward, so any level suffices
    }
  }
  return false;
}

std::uint64_t RichTableObject::approximateSize() const {
  std::uint64_t size = static_cast<std::uint64_t>(
      table.dataBytes > 0 ? table.dataBytes : 0);
  size += table.name.size() + table.owner.size() + table.format.size() + 48;
  size += schema.name.size() + schema.owner.size() + 32;
  size += catalog.name.size() + catalog.owner.size() + 32;
  for (const Privilege& p : privileges) {
    size += p.principal.size() + p.action.size() + 8;
  }
  for (const Constraint& c : constraints) {
    size += c.kind.size() + c.definition.size() + 8;
  }
  size += lineage.size() * 16;
  for (const auto& [key, value] : properties) {
    size += key.size() + value.size() + 8;
  }
  return size;
}

}  // namespace dcache::richobject
