// getTable: the paper's canonical rich-object read (§5.4). Each request
// expands into up to 8 SQL statements against the normalized catalog
// (table row, parents, privileges, constraints, lineage, properties,
// owner), then application logic composes the RichTableObject. This is the
// query amplification that storage pays for on every uncached read, and
// that a linked object cache eliminates entirely.
#pragma once

#include <cstdint>

#include "richobject/catalog_store.hpp"
#include "richobject/entities.hpp"
#include "sim/node.hpp"

namespace dcache::richobject {

/// Application-side CPU for issuing statements and composing the object.
struct AppCosts {
  double requestPrepMicros = 5.0;      // per SQL statement prepared/issued
  double composePerStatementMicros = 2.0;
  double composePerByteMicros = 0.0004;  // object assembly over results
};

class Assembler {
 public:
  Assembler(CatalogStore& store, AppCosts costs = {});

  struct GetTableResult {
    bool ok = false;
    /// The assembled object, in the assembler's scratch: valid until the
    /// next getTable or updateTable on this assembler.
    const RichTableObject* object = nullptr;
    std::size_t statementsIssued = 0;
    std::uint64_t bytesRead = 0;
    double latencyMicros = 0.0;
  };

  /// Assemble the rich object for `tableId`, issuing
  /// `trace().statementsFor(tableId)` statements (clamped to [1, 8]) from
  /// `appNode`. Fewer statements means a leaner object (some satellites
  /// skipped) — matching how production read paths grow logic over time.
  /// The object is built into a scratch object reused across calls.
  GetTableResult getTable(sim::Node& appNode, std::uint64_t tableId);

  /// Update path: bump the table row version and rewrite its blob; single
  /// UPDATE statement plus satellite touch, as the production service does.
  double updateTable(sim::Node& appNode, std::uint64_t tableId);

  [[nodiscard]] const AppCosts& costs() const noexcept { return costs_; }

 private:
  CatalogStore* store_;
  AppCosts costs_;
  RichTableObject object_;  // getTable's result, rebuilt in place
};

}  // namespace dcache::richobject
