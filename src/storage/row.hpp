// Row values and the row codec. Rows are encoded with the shared wire
// format (column index + 1 as the field number), so storage pays the same
// honest serialization costs as the RPC layer and the codec round-trips are
// testable against corrupted input. A RowView reads a stored row in place:
// the SQL read path hands out views and decodes only the columns it reads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "storage/schema.hpp"

namespace dcache::storage {

using Value = std::variant<std::int64_t, double, std::string>;

[[nodiscard]] std::string valueToString(const Value& v);
[[nodiscard]] std::int64_t valueToInt(const Value& v) noexcept;
/// valueToString(v).size(), without building the string.
[[nodiscard]] std::size_t valueTextSize(const Value& v);
/// valueToString(v) into `out`, reusing its buffer.
void valueTextTo(const Value& v, std::string& out);

/// Compare for WHERE equality; int/double compare numerically.
[[nodiscard]] bool valueEquals(const Value& a, const Value& b) noexcept;

struct Row {
  std::vector<Value> values;

  [[nodiscard]] const Value& at(std::size_t i) const { return values.at(i); }
};

/// A row of `schema` read in place from its wire bytes. Accessors decode
/// one column and allocate nothing; a column absent from the bytes reads as
/// decodeRow's default (0, 0.0, ""), and of repeated fields the last wins,
/// as in decodeRow. The view borrows the bytes and the schema.
class RowView {
 public:
  RowView() = default;

  /// The bytes as a row of `schema`; nullopt exactly where decodeRow
  /// rejects them.
  [[nodiscard]] static std::optional<RowView> of(const TableSchema& schema,
                                                 std::string_view bytes);

  /// Typed reads of a column declared with that type.
  [[nodiscard]] std::int64_t intAt(std::size_t c) const;
  [[nodiscard]] double doubleAt(std::size_t c) const;
  [[nodiscard]] std::string_view stringAt(std::size_t c) const;
  /// valueEquals(decoded column c, v), decoding only column c.
  [[nodiscard]] bool equals(std::size_t c, const Value& v) const;
  /// Column c materialized, as decodeRow would hold it.
  [[nodiscard]] Value value(std::size_t c) const;

  [[nodiscard]] const TableSchema& schema() const noexcept { return *schema_; }
  [[nodiscard]] std::size_t columnCount() const noexcept {
    return schema_->columnCount();
  }
  [[nodiscard]] std::string_view bytes() const noexcept { return bytes_; }
  /// The bytes are exactly what encodeRow writes for the row they decode
  /// to, under a schema of fewer than 16 columns (one-byte tags): every
  /// column once, in column order, with its type's wire type, minimally
  /// encoded. Then bytes().size() equals
  /// encodedRowSize(schema(), *decodeRow(schema(), bytes())).
  [[nodiscard]] bool canonical() const noexcept { return canonical_; }

 private:
  RowView(const TableSchema& schema, std::string_view bytes,
          bool canonical) noexcept
      : schema_(&schema), bytes_(bytes), canonical_(canonical) {}
  /// Encoded value of column c's winning field: the varint of an int, the 8
  /// bytes of a double, the contents of a string; empty if absent.
  [[nodiscard]] std::string_view field(std::size_t c) const;

  const TableSchema* schema_ = nullptr;
  std::string_view bytes_;
  bool canonical_ = false;
};

/// Encode a row per the schema. Columns beyond the schema are dropped.
[[nodiscard]] std::string encodeRow(const TableSchema& schema, const Row& row);

/// Decode; nullopt on malformed bytes or type mismatch.
[[nodiscard]] std::optional<Row> decodeRow(const TableSchema& schema,
                                           std::string_view bytes);

/// Encoded size without materializing the buffer.
[[nodiscard]] std::uint64_t encodedRowSize(const TableSchema& schema,
                                           const Row& row);

/// Declared opaque-attachment bytes for a row (0 when the schema declares
/// no payload-size column). See TableSchema::withPayloadSizeColumn.
[[nodiscard]] std::uint64_t declaredPayloadBytes(const TableSchema& schema,
                                                 const Row& row) noexcept;

}  // namespace dcache::storage
