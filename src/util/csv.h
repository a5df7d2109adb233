// Minimal CSV emission for datasets and bench outputs.
//
// Benches print figure series both as human-readable rows and, when a path
// is supplied, as CSV suitable for external plotting. The dataset export
// (analysis/export.cpp) writes millions of rows through typed_row; the
// byte format it must keep is set out in DESIGN.md §19.
#pragma once

#include <charconv>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace curtain::util {

/// Quotes a field per RFC 4180 when it contains a comma, quote or newline.
std::string csv_escape(const std::string& field);

/// Widest double cell: "-1.79769e+308" is 13 bytes.
inline constexpr size_t kCsvDoubleChars = 16;
/// Widest integer cell: "-9223372036854775808" or "18446744073709551615".
inline constexpr size_t kCsvIntegerChars = 20;

/// Cell formatters: each writes one cell at `at`, which must have room for
/// the cell's maximum width, and returns one past the last byte written.
///
/// Text, quoted as csv_escape would: room for 2 * text.size() + 2 bytes.
char* put_csv_cell(char* at, std::string_view text);
/// A double exactly as printf("%.6g") would write it, except that
/// non-finite values are written as "inf", "-inf" and "nan": room for
/// kCsvDoubleChars bytes.
char* put_csv_cell(char* at, double v);
/// An integer in decimal: room for kCsvIntegerChars bytes.
template <typename T>
  requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
char* put_csv_cell(char* at, T v) {
  return std::to_chars(at, at + kCsvIntegerChars, v).ptr;
}

/// Streams rows to any std::ostream. The writer does not own the stream.
///
/// Every row is formatted into one reused buffer and leaves in one write.
/// Cells are written in place: integers and doubles through std::to_chars
/// (doubles byte-identical to printf("%.6g"), with non-finite values
/// spelled "inf", "-inf", "nan"), and text from a view, quoted per csv_escape
/// only when it contains a comma, quote, CR or LF. Nothing is allocated
/// once the buffer has grown to the widest row.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void row(std::initializer_list<std::string_view> fields);

  /// One row from typed cells: integers (bool and char as numbers),
  /// doubles, and anything convertible to std::string_view.
  template <typename... Ts>
  void typed_row(const Ts&... fields) {
    write_cells(cell(fields)...);
  }

 private:
  // Normalizes a typed_row argument to the three cell kinds; unary plus
  // promotes bool and char to int, which prints them as numbers.
  static std::string_view cell(std::string_view text) { return text; }
  static double cell(double v) { return v; }
  template <typename T>
    requires std::is_integral_v<T>
  static auto cell(T v) {
    return +v;
  }

  static size_t max_chars(std::string_view text) { return 2 * text.size() + 2; }
  static size_t max_chars(double) { return kCsvDoubleChars; }
  template <typename T>
    requires std::is_integral_v<T>
  static size_t max_chars(T) {
    return kCsvIntegerChars;
  }

  template <typename... Cells>
  void write_cells(const Cells&... cells) {
    char* at = reserve((max_chars(cells) + ... + sizeof...(cells)) + 1);
    ((at = put_csv_cell(at, cells), *at++ = ','), ...);
    end_row(at);
  }

  /// Returns the start of a buffer of at least `bytes`.
  char* reserve(size_t bytes) {
    if (line_.size() < bytes) line_.resize(bytes);
    return line_.data();
  }
  /// Turns the separator before `end` (if any) into the newline and writes
  /// the row.
  void end_row(char* end);

  std::ostream& out_;
  std::string line_;  // reused across rows; grows to the widest row
};

/// Opens `path` for writing; valid() reports failure instead of throwing so
/// benches can fall back to stdout-only output.
class CsvFile {
 public:
  explicit CsvFile(const std::string& path) : stream_(path), writer_(stream_) {}

  bool valid() const { return stream_.good(); }
  CsvWriter& writer() { return writer_; }

 private:
  std::ofstream stream_;
  CsvWriter writer_;
};

}  // namespace curtain::util
