#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/supervise.h"
#include "common/table.h"

namespace procheck {
namespace {

// --- bytes -------------------------------------------------------------

TEST(Hex, RoundTrip) {
  Bytes data{0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(data), "0001abff");
}

TEST(Hex, EmptyIsEmpty) { EXPECT_EQ(to_hex({}), ""); }

TEST(ByteWriterReader, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDE);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(r.ok());
}

TEST(ByteWriterReader, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes(), (Bytes{0x01, 0x02}));
}

TEST(ByteWriterReader, BlobAndStringRoundTrip) {
  ByteWriter w;
  w.blob({0xDE, 0xAD});
  w.str("attach_request");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.blob(), (Bytes{0xDE, 0xAD}));
  EXPECT_EQ(r.str(), "attach_request");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, OutOfBoundsReturnsNullopt) {
  Bytes buf{0x01};
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.ok());
  // Further reads keep failing; no UB.
  EXPECT_FALSE(r.u32().has_value());
}

TEST(ByteReader, TruncatedBlobFails) {
  ByteWriter w;
  w.u16(10);  // claims 10 bytes
  w.u8(0x01);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.blob().has_value());
}

TEST(ByteReader, EmptyBlob) {
  ByteWriter w;
  w.blob({});
  ByteReader r(w.bytes());
  auto b = r.blob();
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->empty());
}

// --- rng ---------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, BytesLength) {
  Rng r(9);
  EXPECT_EQ(r.next_bytes(17).size(), 17u);
  EXPECT_TRUE(r.next_bytes(0).empty());
}

TEST(Prf, DeterministicAndKeyed) {
  Bytes data{1, 2, 3};
  EXPECT_EQ(prf64(5, data), prf64(5, data));
  EXPECT_NE(prf64(5, data), prf64(6, data));
  EXPECT_NE(prf64(5, data), prf64(5, Bytes{1, 2, 4}));
}

TEST(Prf, LengthSensitive) {
  EXPECT_NE(prf64(1, Bytes{0}), prf64(1, Bytes{0, 0}));
}

TEST(PrfStream, DeterministicLengthAndIv) {
  Bytes a = prf_stream(1, 2, 32);
  Bytes b = prf_stream(1, 2, 32);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(prf_stream(1, 3, 32), a);
  EXPECT_NE(prf_stream(2, 2, 32), a);
  // Prefix property: a longer stream extends a shorter one.
  Bytes longer = prf_stream(1, 2, 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
}

// --- strings -----------------------------------------------------------

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitLinesDropsTrailing) {
  EXPECT_EQ(split_lines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_lines("a\nb"), (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"x", "y"}, " & "), "x & y");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Predicates) {
  EXPECT_TRUE(starts_with("recv_attach", "recv_"));
  EXPECT_FALSE(starts_with("recv", "recv_"));
  EXPECT_TRUE(ends_with("x_trigger", "_trigger"));
  EXPECT_FALSE(ends_with("trig", "_trigger"));
  EXPECT_TRUE(contains("abc", "b"));
  EXPECT_FALSE(contains("abc", "d"));
}

// --- table -------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable t({"Attack", "srsLTE", "OAI"});
  t.add_row({"P1", "yes", "yes"});
  t.add_row({"longer-name", "no", "yes"});
  std::string out = t.render();
  EXPECT_NE(out.find("Attack"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Every data line has the separator in the same column.
  auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 4u);
  std::size_t sep = lines[0].find('|');
  EXPECT_EQ(lines[2].find('|'), sep);
  EXPECT_EQ(lines[3].find('|'), sep);
}

TEST(TextTable, SectionsAndRules) {
  TextTable t({"a", "b"});
  t.add_section("New Attacks");
  t.add_row({"x", "y"});
  t.add_rule();
  t.add_row({"z", "w"});
  std::string out = t.render();
  EXPECT_NE(out.find("New Attacks"), std::string::npos);
  EXPECT_EQ(t.row_count(), 4u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.render());
}

// --- supervise: the retry ladder ------------------------------------------

TEST(Supervise, RepeatsOnlyAThrowADeadlineOrAnUnavailableSul) {
  // A repeat runs under the same budget, so only these three can end
  // otherwise. A result, an interruption, a contested cell, a state cap and
  // a memory ceiling all come out the same on a repeat.
  using supervise::Failure;
  const std::vector<std::pair<Failure, int>> cases = {
      {Failure::kNone, 1},      {Failure::kCancelled, 1},  {Failure::kContested, 1},
      {Failure::kBudget, 1},    {Failure::kMemCeiling, 1}, {Failure::kException, 3},
      {Failure::kDeadline, 3},  {Failure::kUnavailable, 3},
  };
  for (const auto& [failure, expected] : cases) {
    const std::string token(supervise::to_string(failure));
    SCOPED_TRACE(token);
    const Failure f = failure;
    int calls = 0;
    const supervise::Outcome out =
        supervise::run_attempts({2}, [&](int attempt) -> supervise::Attempt {
          calls = attempt;
          if (f == Failure::kException) throw std::runtime_error("thrown");
          return {f, "detail"};
        });
    EXPECT_EQ(calls, expected);
    EXPECT_EQ(out.attempts, expected);
    EXPECT_EQ(out.failure, f);
    EXPECT_EQ(out.diagnostics, f == Failure::kException ? "thrown" : "detail");
    EXPECT_EQ(out.exhausted_note,
              expected == 1 ? ""
                            : " [supervisor: " + token + " persisted through 3 attempts]");
  }
}

}  // namespace
}  // namespace procheck
