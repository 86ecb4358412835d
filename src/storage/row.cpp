#include "storage/row.hpp"

#include <cassert>
#include <charconv>
#include <cmath>

#include "rpc/messages.hpp"
#include "rpc/wire.hpp"

namespace dcache::storage {
namespace {

/// Reads the next field of a row of `schema` from `dec`, as one turn of
/// decodeRow's loop does: known columns are read by their column type
/// whatever the tag's wire type, other fields (field 0 included) are
/// skipped by their wire type. False where decodeRow fails. `column` is
/// columnCount() for a skipped field, and `value` the encoded value of a
/// read one (see RowView::field). `canonical` says whether the field is
/// what encodeRow writes: a one-byte tag of the column type's wire type and
/// a minimal encoding.
bool nextField(const TableSchema& schema, std::string_view bytes,
               rpc::WireDecoder& dec, std::size_t& column,
               std::string_view& value, bool& canonical) {
  const std::size_t tagStart = dec.position();
  const auto tag = dec.readTag();
  if (!tag) return false;
  const std::size_t n = schema.columnCount();
  column = tag->number == 0 ? n : static_cast<std::size_t>(tag->number - 1);
  if (column >= n) {
    column = n;
    canonical = false;
    return dec.skip(tag->type);
  }
  const std::size_t start = dec.position();
  canonical = start == tagStart + 1;
  switch (schema.columns()[column].type) {
    case ColumnType::kInt: {
      const auto v = dec.readVarint();
      if (!v) return false;
      value = bytes.substr(start, dec.position() - start);
      // A ten-byte varint carries bit 63 alone in its last byte; the
      // decoder drops any higher bits, which encodeRow never writes.
      canonical = canonical && tag->type == rpc::WireType::kVarint &&
                  value.size() == rpc::varintSize(*v) &&
                  (value.size() < 10 || value.back() == 0x01);
      return true;
    }
    case ColumnType::kDouble:
      if (!dec.readFixed64()) return false;
      value = bytes.substr(start, 8);
      canonical = canonical && tag->type == rpc::WireType::kFixed64;
      return true;
    case ColumnType::kString: {
      const auto v = dec.readBytes();
      if (!v) return false;
      value = *v;
      const auto lengthBytes =
          static_cast<std::uint64_t>(v->data() - bytes.data()) - start;
      canonical = canonical &&
                  tag->type == rpc::WireType::kLengthDelimited &&
                  lengthBytes == rpc::varintSize(v->size());
      return true;
    }
  }
  return false;
}

/// Decode a varint that RowView::of already validated, advancing `p`.
std::uint64_t validatedVarint(const char*& p) noexcept {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<std::uint8_t>(*p++);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

}  // namespace

std::string valueToString(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return std::to_string(*d);
  return std::get<std::string>(v);
}

std::int64_t valueToInt(const Value& v) noexcept {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) {
    return static_cast<std::int64_t>(*d);
  }
  const auto& s = std::get<std::string>(v);
  return std::strtoll(s.c_str(), nullptr, 10);
}

std::size_t valueTextSize(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    char buf[24];
    return static_cast<std::size_t>(
        std::to_chars(buf, buf + sizeof buf, *i).ptr - buf);
  }
  if (const auto* s = std::get_if<std::string>(&v)) return s->size();
  return valueToString(v).size();
}

void valueTextTo(const Value& v, std::string& out) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    char buf[24];
    out.assign(buf, std::to_chars(buf, buf + sizeof buf, *i).ptr);
  } else if (const auto* s = std::get_if<std::string>(&v)) {
    out.assign(*s);
  } else {
    out = valueToString(v);
  }
}

bool valueEquals(const Value& a, const Value& b) noexcept {
  if (a.index() == b.index()) return a == b;
  // Numeric cross-type comparison; strings never equal numbers.
  const bool aNum = !std::holds_alternative<std::string>(a);
  const bool bNum = !std::holds_alternative<std::string>(b);
  if (!aNum || !bNum) return false;
  auto asDouble = [](const Value& v) {
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(v);
  };
  return asDouble(a) == asDouble(b);
}

std::string encodeRow(const TableSchema& schema, const Row& row) {
  rpc::WireEncoder enc;
  const std::size_t n = std::min(schema.columnCount(), row.values.size());
  for (std::size_t c = 0; c < n; ++c) {
    const auto field = static_cast<std::uint32_t>(c + 1);
    switch (schema.columns()[c].type) {
      case ColumnType::kInt:
        enc.writeSint(field, valueToInt(row.values[c]));
        break;
      case ColumnType::kDouble: {
        double d = 0.0;
        if (const auto* p = std::get_if<double>(&row.values[c])) {
          d = *p;
        } else {
          d = static_cast<double>(valueToInt(row.values[c]));
        }
        enc.writeDouble(field, d);
        break;
      }
      case ColumnType::kString:
        enc.writeString(field, valueToString(row.values[c]));
        break;
    }
  }
  return std::string(enc.view());
}

std::optional<RowView> RowView::of(const TableSchema& schema,
                                   std::string_view bytes) {
  rpc::WireDecoder dec(bytes);
  // Canonical rows carry column 0, 1, ... in order; `next` is the column
  // such a row carries next.
  std::size_t next = 0;
  bool canonical = schema.columnCount() < 16;
  while (!dec.done()) {
    std::size_t column = 0;
    std::string_view value;
    bool canonicalField = false;
    if (!nextField(schema, bytes, dec, column, value, canonicalField)) {
      return std::nullopt;
    }
    canonical = canonical && canonicalField && column == next;
    ++next;
  }
  return RowView(schema, bytes, canonical && next == schema.columnCount());
}

std::string_view RowView::field(std::size_t c) const {
  assert(c < schema_->columnCount());
  if (canonical_) {
    // Column k is the k-th field behind a one-byte tag, minimally encoded:
    // skip to column c without re-checking what of() checked.
    const char* p = bytes_.data();
    for (std::size_t k = 0;; ++k) {
      ++p;  // the tag
      const char* start = p;
      switch (schema_->columns()[k].type) {
        case ColumnType::kInt:
          validatedVarint(p);
          if (k == c) {
            return std::string_view(start, static_cast<std::size_t>(p - start));
          }
          break;
        case ColumnType::kDouble:
          if (k == c) return std::string_view(p, 8);
          p += 8;
          break;
        case ColumnType::kString: {
          const std::uint64_t length = validatedVarint(p);
          if (k == c) return std::string_view(p, length);
          p += length;
          break;
        }
      }
    }
  }
  std::string_view found;  // of repeated fields, the last wins
  rpc::WireDecoder dec(bytes_);
  while (!dec.done()) {
    std::size_t column = 0;
    std::string_view value;
    bool canonicalField = false;
    // of() accepted these bytes, so every field reads.
    nextField(*schema_, bytes_, dec, column, value, canonicalField);
    if (column == c) found = value;
  }
  return found;
}

std::int64_t RowView::intAt(std::size_t c) const {
  assert(schema_->columns()[c].type == ColumnType::kInt);
  return rpc::WireDecoder(field(c)).readSint().value_or(0);  // 0 if absent
}

double RowView::doubleAt(std::size_t c) const {
  assert(schema_->columns()[c].type == ColumnType::kDouble);
  return rpc::WireDecoder(field(c)).readDouble().value_or(0.0);
}

std::string_view RowView::stringAt(std::size_t c) const {
  assert(schema_->columns()[c].type == ColumnType::kString);
  return field(c);
}

bool RowView::equals(std::size_t c, const Value& v) const {
  switch (schema_->columns()[c].type) {
    case ColumnType::kInt:
      return valueEquals(Value{intAt(c)}, v);
    case ColumnType::kDouble:
      return valueEquals(Value{doubleAt(c)}, v);
    case ColumnType::kString: {
      // A string never equals a number.
      const auto* s = std::get_if<std::string>(&v);
      return s != nullptr && *s == stringAt(c);
    }
  }
  return false;
}

Value RowView::value(std::size_t c) const {
  switch (schema_->columns()[c].type) {
    case ColumnType::kInt: return intAt(c);
    case ColumnType::kDouble: return doubleAt(c);
    case ColumnType::kString: return std::string(stringAt(c));
  }
  return std::int64_t{0};
}

std::optional<Row> decodeRow(const TableSchema& schema,
                             std::string_view bytes) {
  rpc::WireDecoder dec(bytes);
  Row row;
  row.values.resize(schema.columnCount(), std::int64_t{0});
  // Default-initialize strings for string columns.
  for (std::size_t c = 0; c < schema.columnCount(); ++c) {
    if (schema.columns()[c].type == ColumnType::kString) {
      row.values[c] = std::string{};
    } else if (schema.columns()[c].type == ColumnType::kDouble) {
      row.values[c] = 0.0;
    }
  }
  while (!dec.done()) {
    const auto tag = dec.readTag();
    if (!tag) return std::nullopt;
    const std::size_t c = tag->number == 0 ? schema.columnCount()
                                           : static_cast<std::size_t>(tag->number - 1);
    if (c >= schema.columnCount()) {
      if (!dec.skip(tag->type)) return std::nullopt;
      continue;
    }
    switch (schema.columns()[c].type) {
      case ColumnType::kInt: {
        const auto v = dec.readSint();
        if (!v) return std::nullopt;
        row.values[c] = *v;
        break;
      }
      case ColumnType::kDouble: {
        const auto v = dec.readDouble();
        if (!v) return std::nullopt;
        row.values[c] = *v;
        break;
      }
      case ColumnType::kString: {
        const auto v = dec.readBytes();
        if (!v) return std::nullopt;
        row.values[c] = std::string(*v);
        break;
      }
    }
  }
  return row;
}

std::uint64_t declaredPayloadBytes(const TableSchema& schema,
                                   const Row& row) noexcept {
  const auto col = schema.payloadSizeColumn();
  if (!col || *col >= row.values.size()) return 0;
  const std::int64_t declared = valueToInt(row.values[*col]);
  return declared > 0 ? static_cast<std::uint64_t>(declared) : 0;
}

std::uint64_t encodedRowSize(const TableSchema& schema, const Row& row) {
  std::uint64_t size = 0;
  const std::size_t n = std::min(schema.columnCount(), row.values.size());
  for (std::size_t c = 0; c < n; ++c) {
    switch (schema.columns()[c].type) {
      case ColumnType::kInt:
        size += 1 + rpc::varintSize(rpc::zigzagEncode(valueToInt(row.values[c])));
        break;
      case ColumnType::kDouble:
        size += 9;
        break;
      case ColumnType::kString: {
        const auto* s = std::get_if<std::string>(&row.values[c]);
        size += rpc::bytesFieldSize(s ? s->size()
                                      : valueToString(row.values[c]).size());
        break;
      }
    }
  }
  return size;
}

}  // namespace dcache::storage
