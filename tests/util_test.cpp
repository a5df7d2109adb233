#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string_view>

#include "util/bytes.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/strings.h"

namespace curtain::util {
namespace {

// --- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, SplitSingleField) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, SplitEmptyString) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitTrailingDelimiter) {
  EXPECT_EQ(split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(Strings, SplitNonemptyDropsBlanks) {
  EXPECT_EQ(split_nonempty(",a,,b,", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"www", "example", "com"};
  EXPECT_EQ(join(parts, "."), "www.example.com");
}

TEST(Strings, JoinEmpty) {
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
}

TEST(Strings, TrimAllWhitespace) {
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, ToLowerAscii) {
  EXPECT_EQ(to_lower("WwW.ExAmPle.COM"), "www.example.com");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("AT&T-pgw-3", "AT&T"));
  EXPECT_FALSE(starts_with("pgw-AT&T", "AT&T"));
  EXPECT_TRUE(ends_with("m.yelp.com", ".com"));
  EXPECT_FALSE(ends_with("com", "m.yelp.com"));
}

TEST(Strings, IequalsCaseInsensitive) {
  EXPECT_TRUE(iequals("LTE", "lte"));
  EXPECT_FALSE(iequals("LTE", "lte2"));
}

TEST(Strings, ParseU64Valid) {
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("0"), 0u);
}

TEST(Strings, ParseU64Invalid) {
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("12a").has_value());
  EXPECT_FALSE(parse_u64("-3").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.5, 1), "-1.5");
}

// --- bytes -----------------------------------------------------------------

TEST(Bytes, WriterBigEndian) {
  ByteWriter w;
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0], 0x12);
  EXPECT_EQ(d[1], 0x34);
  EXPECT_EQ(d[2], 0xde);
  EXPECT_EQ(d[5], 0xef);
}

TEST(Bytes, ReaderRoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u16(300);
  w.put_u32(70000);
  w.put_string("hi");
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u16(), 300);
  EXPECT_EQ(r.get_u32(), 70000u);
  EXPECT_EQ(r.get_string(2), "hi");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderOverrunSetsError) {
  const std::vector<uint8_t> data{1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.get_u32(), 0u);
  EXPECT_FALSE(r.ok());
  // Sticky: further reads also fail.
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, PatchU16Backpatches) {
  ByteWriter w;
  w.put_u16(0);
  w.put_u8(42);
  w.patch_u16(0, 0xbeef);
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u16(), 0xbeef);
}

TEST(Bytes, SeekPastEndFails) {
  const std::vector<uint8_t> data{1, 2, 3};
  ByteReader r(data);
  r.seek(4);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, SeekWithinBoundsOk) {
  const std::vector<uint8_t> data{1, 2, 3};
  ByteReader r(data);
  r.seek(2);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_u8(), 3);
}

TEST(Bytes, HexDump) {
  const std::vector<uint8_t> data{0xde, 0xad};
  EXPECT_EQ(hex_dump(data), "de ad");
}

// --- csv ---------------------------------------------------------------

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterRow) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"a", "b,c"});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n");
}

TEST(Csv, TypedRowFormatsNumbers) {
  std::ostringstream out;
  CsvWriter w(out);
  w.typed_row(std::string("x"), 42, 2.5);
  EXPECT_EQ(out.str(), "x,42,2.5\n");
}

// The double cell as the writer produced it before it became append-only:
// snprintf("%.6g") with inf/-inf/nan spelled out. The to_chars path must
// match it byte for byte, or every exported dataset changes.
std::string reference_double_cell(double v) {
  if (!std::isfinite(v)) return v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string double_cell(double v) {
  char buf[kCsvDoubleChars];
  return std::string(buf, put_csv_cell(buf, v));
}

// Checks v and -v against the reference; returns the number of mismatches
// so bulk loops can stop reporting after the first few.
int expect_double_cells_match(double v) {
  int mismatches = 0;
  for (const double x : {v, -v}) {
    const std::string got = double_cell(x);
    const std::string want = reference_double_cell(x);
    if (got != want) {
      ++mismatches;
      ADD_FAILURE() << "%.6g mismatch for " << std::hexfloat << x << ": got "
                    << got << ", want " << want;
    }
  }
  return mismatches;
}

TEST(CsvDouble, EdgeValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edges[] = {
      0.0, std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
      DBL_TRUE_MIN * 3, DBL_MIN / 3, std::nextafter(DBL_MIN, 0.0),
      1e300, 1e-300, 1e308, 1e-308, 1.7976931348623157e308,
      // Integers up to 2^53, and around the six-digit boundary.
      1.0, 2.0, 7.0, 10.0, 99999.0, 100000.0, 123456.0, 999999.0, 1000000.0,
      1000001.0, 1234567.0, 9007199254740991.0, 9007199254740992.0,
      4503599627370496.5,
      // The %g switch between fixed and exponent notation.
      1e-5, 1e-4, 0.0001, 0.00009999995, 0.000099999949999, 0.0001000005,
      999999.5, 999999.49999999994, 999999.50000000006, 999999.4, 1e6, 1e7,
      9.999995e-5, 9.9999949e-5,
      // Values that round at the sixth significant digit, ties included.
      0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 1.5, 2.5, 0.125, 1.0000005,
      1.0000015, 1.0000025, 12345.65, 12345.75, 45.1234567, 123.4565,
      0.5, 0.05, 0.005, 2.675, 1.45, 5e-324, 9.5, 99.5, 999.5, 9999.5,
      99999.5, 0.000123456789, 3.14159265358979,
  };
  for (const double v : edges) expect_double_cells_match(v);
  EXPECT_EQ(double_cell(kInf), "inf");
  EXPECT_EQ(double_cell(-kInf), "-inf");
  EXPECT_EQ(double_cell(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(double_cell(-std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(double_cell(-0.0), "-0");
  EXPECT_EQ(reference_double_cell(kInf), "inf");
}

TEST(CsvDouble, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 bits(20141105);
  int mismatches = 0;
  for (int i = 0; i < 1000000 && mismatches < 10; ++i) {
    const uint64_t pattern = bits();
    double v;
    std::memcpy(&v, &pattern, sizeof(v));
    mismatches += expect_double_cells_match(v);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CsvDouble, RandomMeasurementRangeValuesMatchPrintf) {
  // Random bit patterns rarely land where exported values live (latencies,
  // coordinates, hours), so sweep that range too, with the half-way points
  // of six-digit decimals and their neighbours.
  std::mt19937_64 bits(20140301);
  std::uniform_real_distribution<double> exponent(-6.0, 8.0);
  std::uniform_int_distribution<int> digits(100000, 999999);
  std::uniform_int_distribution<int> power(-11, 3);
  int mismatches = 0;
  for (int i = 0; i < 200000 && mismatches < 10; ++i) {
    mismatches += expect_double_cells_match(std::pow(10.0, exponent(bits)));
    const double half_way =
        (digits(bits) + 0.5) * std::pow(10.0, power(bits));
    mismatches += expect_double_cells_match(half_way);
    mismatches +=
        expect_double_cells_match(std::nextafter(half_way, 0.0));
    mismatches +=
        expect_double_cells_match(std::nextafter(half_way, DBL_MAX));
    mismatches += expect_double_cells_match(static_cast<double>(
        bits() >> (11 + static_cast<int>(bits() % 53))));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Csv, ViewFieldsQuoteOnlyWhenNeeded) {
  const std::string_view fields[] = {
      "plain", "", "a,b", "say \"hi\"", "two\nlines", "cr\rhere", "\"",
      ",", "m.yelp.com", "T-Mobile"};
  for (const std::string_view field : fields) {
    std::ostringstream out;
    CsvWriter w(out);
    w.typed_row(field);
    EXPECT_EQ(out.str(), csv_escape(std::string(field)) + "\n") << field;
  }
  char buf[2 * 5 + 2];
  EXPECT_EQ(std::string(buf, put_csv_cell(buf, "a\"b,c")), "\"a\"\"b,c\"");
  EXPECT_EQ(std::string(buf, put_csv_cell(buf, "\"\"\"\"\"")),
            "\"\"\"\"\"\"\"\"\"\"\"\"");  // the widest: 2 * 5 + 2
}

// A name formatted once into a CsvCells table and text written straight
// into the row both end up quoted as a view cell is.
TEST(Csv, TableAndInPlaceCellsQuoteAsViewCells) {
  const std::string_view fields[] = {
      "plain", "", "a,b", "say \"hi\"", "two\nlines", "cr\rhere", "\"",
      "\"\"\"", ",", "1.2.3.4 5.6.7.8", "hop|\"x\",y"};
  CsvCells table;
  for (const std::string_view field : fields) table.add(field);
  ASSERT_EQ(table.size(), std::size(fields));
  for (size_t i = 0; i < table.size(); ++i) {
    const std::string_view field = fields[i];
    const std::string expected = csv_escape(std::string(field)) + "\n";
    std::ostringstream from_table;
    CsvWriter table_writer(from_table);
    table_writer.typed_row(table[i]);
    EXPECT_EQ(from_table.str(), expected) << field;
    const auto write = [field](char* at) {
      std::memcpy(at, field.data(), field.size());
      return at + field.size();
    };
    std::ostringstream in_place;
    CsvWriter in_place_writer(in_place);
    in_place_writer.typed_row(CsvInPlace{field.size(), write});
    EXPECT_EQ(in_place.str(), expected) << field;
  }
}

TEST(Csv, TypedRowMatchesPerCellEscaping) {
  // One row of every cell type the dataset export writes, against the
  // pre-append-only rule: each cell escaped on its own, joined by commas.
  std::ostringstream out;
  CsvWriter w(out);
  const std::string carrier = "AT&T, Inc.";
  const char* kind = "client_resolver";
  const std::string_view host = "m.yelp.com";
  w.typed_row(uint64_t{18446744073709551615u}, carrier, kind, host, -7,
              int8_t{-3}, true, 0.1, -0.0, 1e-5, std::string_view());
  EXPECT_EQ(out.str(),
            "18446744073709551615,\"AT&T, Inc.\",client_resolver,m.yelp.com,"
            "-7,-3,1,0.1,-0,1e-05,\n");
  std::ostringstream header;
  CsvWriter h(header);
  h.row({"a", "b,c", ""});
  h.typed_row();
  EXPECT_EQ(header.str(), "a,\"b,c\",\n\n");
}

// --- flags -------------------------------------------------------------

TEST(Flags, EnvDoubleFallback) {
  unsetenv("CURTAIN_TEST_D");
  EXPECT_DOUBLE_EQ(env_double("CURTAIN_TEST_D", 1.5), 1.5);
  setenv("CURTAIN_TEST_D", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("CURTAIN_TEST_D", 1.5), 2.25);
  setenv("CURTAIN_TEST_D", "junk", 1);
  EXPECT_DOUBLE_EQ(env_double("CURTAIN_TEST_D", 1.5), 1.5);
  unsetenv("CURTAIN_TEST_D");
}

TEST(Flags, EnvU64) {
  setenv("CURTAIN_TEST_U", "77", 1);
  EXPECT_EQ(env_u64("CURTAIN_TEST_U", 5), 77u);
  unsetenv("CURTAIN_TEST_U");
  EXPECT_EQ(env_u64("CURTAIN_TEST_U", 5), 5u);
}

TEST(Flags, CampaignScaleClamped) {
  setenv("CURTAIN_SCALE", "7", 1);
  EXPECT_DOUBLE_EQ(campaign_scale(), 1.0);
  setenv("CURTAIN_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(campaign_scale(), 0.05);
  unsetenv("CURTAIN_SCALE");
}

}  // namespace
}  // namespace curtain::util
