// Lockstep differential test of storage::RowView against decodeRow, the
// codec it replaces on the SQL read path. Every row of every table of a
// populated catalog must read the same through both, and a canonical row's
// byte length must equal the encodedRowSize the front-end used to price it.
// Malformed bytes (truncated varints, lengths past the end, field 0,
// unknown fields, duplicates, wrong and unknown wire types) must be
// accepted or rejected exactly as decodeRow does, on hand-made cases and
// on seeded mutations of real rows. The executor's corrupt-row behaviour is
// pinned too: a point get fails, an index lookup skips, a table scan fails.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "richobject/catalog_store.hpp"
#include "rpc/channel.hpp"
#include "sim/tier.hpp"
#include "storage/database.hpp"
#include "storage/row.hpp"
#include "util/rng.hpp"
#include "workload/uc_trace.hpp"

namespace dcache::storage {
namespace {

/// The view and decodeRow agree on `bytes`: both reject, or both accept
/// with every column equal through value(), the typed accessors and
/// equals(). A canonical view is exactly encodedRowSize bytes long, and a
/// view of encodeRow's output is canonical.
void expectLockstep(const TableSchema& schema, std::string_view bytes) {
  const std::optional<Row> decoded = decodeRow(schema, bytes);
  const std::optional<RowView> view = RowView::of(schema, bytes);
  ASSERT_EQ(decoded.has_value(), view.has_value());
  if (!decoded) return;
  ASSERT_EQ(view->columnCount(), decoded->values.size());
  EXPECT_EQ(view->bytes(), bytes);
  for (std::size_t c = 0; c < schema.columnCount(); ++c) {
    const Value& want = decoded->values[c];
    // valueEquals, like WHERE, finds a NaN unequal to itself.
    EXPECT_EQ(view->equals(c, want), valueEquals(want, want))
        << "column " << c;
    switch (schema.columns()[c].type) {
      case ColumnType::kInt:
        EXPECT_EQ(view->value(c), want) << "column " << c;
        EXPECT_EQ(view->intAt(c), std::get<std::int64_t>(want));
        break;
      case ColumnType::kDouble: {
        // Bitwise, so NaNs compare too.
        const double got = view->doubleAt(c);
        const double expected = std::get<double>(want);
        const double materialized = std::get<double>(view->value(c));
        EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0);
        EXPECT_EQ(std::memcmp(&materialized, &expected, sizeof got), 0);
        break;
      }
      case ColumnType::kString:
        EXPECT_EQ(view->value(c), want) << "column " << c;
        EXPECT_EQ(view->stringAt(c), std::get<std::string>(want));
        break;
    }
  }
  if (view->canonical()) {
    EXPECT_EQ(bytes.size(), encodedRowSize(schema, *decoded));
  }
  EXPECT_EQ(encodeRow(schema, *decoded) == bytes, view->canonical())
      << "canonical means exactly what encodeRow writes";
}

const TableSchema& mixedSchema() {
  static const TableSchema schema("mixed",
                                  {Column{"id", ColumnType::kInt},
                                   Column{"score", ColumnType::kDouble},
                                   Column{"name", ColumnType::kString}},
                                  0);
  return schema;
}

TEST(RowViewDifferential, EveryCatalogRowReadsAsDecodeRow) {
  sim::NetworkModel network;
  sim::Tier sqlTier("sql", sim::TierKind::kSqlFrontend, 1);
  sim::Tier kvTier("kv", sim::TierKind::kKvStorage, 3);
  rpc::Channel channel(network, rpc::SerializationModel{});
  Database db(sqlTier, kvTier, channel);
  workload::UcTraceConfig traceConfig;
  traceConfig.numTables = 2000;
  const workload::UcTraceWorkload trace(traceConfig);
  richobject::CatalogStore store(db, trace);
  store.createSchemas();
  store.populate();

  for (const char* table : {"tables", "schemas", "catalogs", "principals",
                            "privileges", "constraints", "lineage",
                            "properties"}) {
    SCOPED_TRACE(table);
    const TableSchema& schema = *db.schema(table);
    std::size_t rows = 0;
    ExecTrace unused;
    db.engineScanPrefix(
        Database::rowPrefix(table), unused,
        [&](std::string_view, const StoredValue& stored) {
          ++rows;
          expectLockstep(schema, stored.payload);
          const auto view = RowView::of(schema, stored.payload);
          EXPECT_TRUE(view && view->canonical());
          // The assembler's bytesRead: a stored row's size is its encoded
          // size plus its declared payload.
          const Row row = *decodeRow(schema, stored.payload);
          EXPECT_EQ(stored.size, encodedRowSize(schema, row) +
                                     declaredPayloadBytes(schema, row));
          return true;
        });
    EXPECT_GT(rows, 0u);
  }
}

TEST(RowViewDifferential, MalformedBytesAcceptedExactlyAsDecodeRow) {
  const TableSchema& schema = mixedSchema();
  const std::string canonical =
      encodeRow(schema, Row{{std::int64_t{-42}, 2.5, std::string("amy")}});
  const std::vector<std::string> cases = {
      "",                               // every column defaulted
      canonical,                        // what encodeRow writes
      std::string("\x08\x80", 2),       // truncated varint value
      std::string("\x08", 1),           // tag with no value
      std::string("\x88", 1),           // truncated tag
      std::string(11, '\x80'),          // overlong varint tag
      std::string("\x1a\x05" "ab", 4),  // string length past the end
      std::string("\x1a\x80\x01" "ab", 5),  // non-minimal, past the end
      std::string("\x11\x00\x00", 3),   // truncated double
      std::string("\x00\x07", 2),       // field 0 (varint), skipped
      std::string("\x02\x01x", 3),      // field 0 (bytes), skipped
      std::string("\x28\x05", 2),       // unknown field 5, varint
      std::string("\x2d\x01\x02\x03\x04", 5),  // unknown fixed32
      std::string("\x2d\x01\x02", 3),          // unknown fixed32, truncated
      std::string("\x29\x01\x02\x03\x04\x05\x06\x07\x08", 9),  // fixed64
      std::string("\x2a\x02" "ab", 4),         // unknown bytes
      std::string("\x2a\x09" "ab", 4),         // unknown bytes, past end
      std::string("\x08\x02\x08\x04", 4),      // duplicate: last wins
      std::string("\x1a\x01" "a\x1a\x02" "bc", 7),  // duplicate string
      std::string("\x0a\x02", 2),       // int column tagged as bytes
      std::string("\x18\x02" "ab", 4),  // string column tagged as varint
      std::string("\x0d\x01\x02\x03\x04\x05\x06\x07\x08", 9),  // wrong wire
      std::string("\x0b", 1),           // unknown wire type 3
      std::string("\x0e\x01", 2),       // unknown wire type 6
      std::string("\x88\x00\x02", 3),   // non-minimal tag
      std::string("\x08\x82\x00", 3),   // non-minimal int
      std::string("\x1a\x00\x08\x02", 4),  // out of column order
      std::string("\x08\x02", 2),       // a column missing
      canonical + std::string("\x28\x05", 2),  // canonical + unknown field
      // Whole rows, each with one field encoded longer than encodeRow
      // writes it: they decode like `canonical` but are not canonical.
      std::string("\x08\xd3\x00", 3) + canonical.substr(2),  // int
      std::string("\x88\x00", 2) + canonical.substr(1),  // tag
      canonical.substr(0, canonical.size() - 5) +
          std::string("\x1a\x83\x00" "amy", 6),  // string length
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    expectLockstep(schema, cases[i]);
  }
  EXPECT_TRUE(RowView::of(schema, canonical)->canonical());
  EXPECT_FALSE(RowView::of(schema, cases[17])->canonical());  // duplicate
  EXPECT_EQ(RowView::of(schema, cases[17])->intAt(0), 2);
  EXPECT_EQ(RowView::of(schema, cases[18])->stringAt(2), "bc");
  EXPECT_FALSE(RowView::of(schema, cases[2]).has_value());
  for (std::size_t i = cases.size() - 3; i < cases.size(); ++i) {
    EXPECT_EQ(decodeRow(schema, cases[i])->values,
              decodeRow(schema, canonical)->values);
    EXPECT_FALSE(RowView::of(schema, cases[i])->canonical()) << i;
  }
}

TEST(RowViewDifferential, SeededMutationsOfRealRows) {
  const TableSchema& schema = mixedSchema();
  util::Pcg32 rng(2027, 16);
  for (int trial = 0; trial < 20000; ++trial) {
    const Row row{{static_cast<std::int64_t>(rng.next()) -
                       static_cast<std::int64_t>(rng.next()) * 4096,
                   static_cast<double>(rng.next()) / 7.0,
                   std::string(rng.nextBounded(40), 'x')}};
    std::string bytes = encodeRow(schema, row);
    switch (rng.nextBounded(4)) {
      case 0:  // flip 1-3 bytes
        for (std::uint32_t f = 0, n = 1 + rng.nextBounded(3); f < n; ++f) {
          bytes[rng.nextBounded(static_cast<std::uint32_t>(bytes.size()))] ^=
              static_cast<char>(1 + rng.nextBounded(255));
        }
        break;
      case 1:  // truncate
        bytes.resize(rng.nextBounded(static_cast<std::uint32_t>(bytes.size())));
        break;
      case 2:  // splice in random bytes
        bytes.insert(rng.nextBounded(static_cast<std::uint32_t>(bytes.size())),
                     1 + rng.nextBounded(4),
                     static_cast<char>(rng.nextBounded(256)));
        break;
      default:  // untouched
        break;
    }
    SCOPED_TRACE(trial);
    expectLockstep(schema, bytes);
    if (HasFatalFailure()) return;
  }
}

// ---- the executor over corrupt stored rows ----

class CorruptRows : public ::testing::Test {
 protected:
  CorruptRows()
      : sqlTier_("sql", sim::TierKind::kSqlFrontend, 1),
        kvTier_("kv", sim::TierKind::kKvStorage, 3),
        client_("client", sim::TierKind::kClient),
        channel_(network_, rpc::SerializationModel{}),
        db_(sqlTier_, kvTier_, channel_) {
    db_.createTable(TableSchema("users",
                                {Column{"id", ColumnType::kInt},
                                 Column{"team_id", ColumnType::kInt},
                                 Column{"name", ColumnType::kString}},
                                0, {1}));
    db_.loadRow("users", Row{{std::int64_t{1}, std::int64_t{10},
                              std::string("amy")}});
    db_.loadRow("users", Row{{std::int64_t{2}, std::int64_t{10},
                              std::string("bob")}});
    // Overwrite user 1's stored bytes with an unknown wire type.
    ExecTrace trace;
    db_.enginePut(Database::rowKey("users", "1"),
                  StoredValue::of(std::string("\x0b", 1)), trace);
  }

  Database::QueryResult exec(std::string_view sql) {
    return db_.exec(client_, sql);
  }

  sim::NetworkModel network_;
  sim::Tier sqlTier_;
  sim::Tier kvTier_;
  sim::Node client_;
  rpc::Channel channel_;
  Database db_;
};

TEST_F(CorruptRows, PointGetIsAnError) {
  const auto r = exec("SELECT * FROM users WHERE id = 1");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("corrupt row"), std::string::npos) << r.error;
  EXPECT_TRUE(exec("SELECT * FROM users WHERE id = 2").ok);
}

TEST_F(CorruptRows, IndexLookupSkipsTheRow) {
  const auto r = exec("SELECT * FROM users WHERE team_id = 10");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].intAt(0), 2);
  EXPECT_EQ(r.rows[0].stringAt(2), "bob");
}

TEST_F(CorruptRows, TableScanIsAnError) {
  const auto r = exec("SELECT * FROM users");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("corrupt row"), std::string::npos) << r.error;
}

TEST_F(CorruptRows, WriteTargetThatDoesNotDecodeFailsTheStatement) {
  // UPDATE and DELETE fetch their targets as reads do: a corrupt point
  // target fails the statement and leaves the row as it was.
  const auto update = exec("UPDATE users SET name = 'x' WHERE id = 1");
  EXPECT_FALSE(update.ok);
  const auto del = exec("DELETE FROM users WHERE id = 1");
  EXPECT_FALSE(del.ok);
  EXPECT_TRUE(db_.peekRowVersion("users", "1").has_value());
}

}  // namespace
}  // namespace dcache::storage
