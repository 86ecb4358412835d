// Unity-Catalog-like entity model (§2.2, §5.2). The hierarchy is
// metastore -> catalog -> schema -> table; privileges are granted to
// principals on any level and inherit downward; tables additionally carry
// constraints, lineage edges and free-form properties. A getTable request
// materializes all of this into one RichTableObject — the "rich application
// object" whose caching behaviour §5.4 studies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcache::richobject {

struct CatalogInfo {
  std::int64_t id = 0;
  std::int64_t metastoreId = 0;
  std::string name;
  std::string owner;
};

struct SchemaInfo {
  std::int64_t id = 0;
  std::int64_t catalogId = 0;
  std::string name;
  std::string owner;
};

struct TableInfo {
  std::int64_t id = 0;
  std::int64_t schemaId = 0;
  std::string name;
  std::string owner;
  std::string format;      // "delta", "parquet", …
  std::int64_t dataBytes = 0;  // column-metadata blob size (declared bytes)
  std::int64_t version = 0;
};

/// Securable levels for privilege grants, ordered by inheritance depth.
enum class SecurableLevel : std::uint8_t { kCatalog, kSchema, kTable };

struct Privilege {
  SecurableLevel level = SecurableLevel::kTable;
  std::string principal;  // "user42", "group7", …
  std::string action;     // "SELECT", "MODIFY", "OWN", …
};

struct Constraint {
  std::string kind;        // "primary_key", "foreign_key", "check"
  std::string definition;
};

struct LineageEdge {
  std::int64_t upstreamTableId = 0;
  std::string kind;  // "read", "transform"
};

/// A table's free-form properties: a flat vector sorted by key. It keeps
/// std::map's emplace semantics (the first value for a key wins, iteration
/// runs in key order), which approximateSize and the object codec rely on,
/// without a node allocation per entry.
class PropertyMap {
 public:
  using value_type = std::pair<std::string, std::string>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Insert unless `key` is present; true if inserted.
  bool emplace(std::string_view key, std::string_view value);
  void clear() noexcept { entries_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  friend bool operator==(const PropertyMap&, const PropertyMap&) = default;

 private:
  std::vector<value_type> entries_;
};

/// The fully materialized rich object a getTable returns.
struct RichTableObject {
  TableInfo table;
  SchemaInfo schema;
  CatalogInfo catalog;
  std::vector<Privilege> privileges;
  std::vector<Constraint> constraints;
  std::vector<LineageEdge> lineage;
  PropertyMap properties;

  /// Empty every part, keeping the capacity of its strings and vectors so
  /// the object can be rebuilt without allocating.
  void clear() noexcept;

  /// Application-level permission check with downward inheritance: a grant
  /// at catalog or schema level covers the table; owners of any ancestor
  /// are implicitly allowed.
  [[nodiscard]] bool allowed(std::string_view principal,
                             std::string_view action) const;

  /// Logical size in bytes: the declared blob plus the structured parts.
  [[nodiscard]] std::uint64_t approximateSize() const;
};

[[nodiscard]] std::string_view securableLevelName(SecurableLevel level) noexcept;

}  // namespace dcache::richobject
