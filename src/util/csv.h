// Minimal CSV emission for datasets and bench outputs.
//
// Benches print figure series both as human-readable rows and, when a path
// is supplied, as CSV suitable for external plotting. The dataset export
// (analysis/export.cpp) writes millions of rows through typed_row; the
// byte format it must keep is set out in DESIGN.md §19.
#pragma once

#include <charconv>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/contract.h"

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
/// The one quoting step behind every text cell: quotes the text already
/// written at [begin, end) in place, as csv_escape would, when it contains
/// a comma, quote, CR or LF. Room for 2 * (end - begin) + 2 bytes from
/// `begin`; returns the cell's end.
char* quote_csv_cell(char* begin, char* end);
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

/// A text cell formatted ahead of the rows by put_csv_cell (CsvCells); a
/// row copies its bytes as they are.
struct CsvCell {
  std::string_view bytes;
};
inline char* put_csv_cell(char* at, CsvCell cell) {
  std::memcpy(at, cell.bytes.data(), cell.bytes.size());
  return at + cell.bytes.size();
}

/// A fixed table of names (carriers, enum names, domain hosts), each
/// formatted into a CsvCell once: the quoting decision is made when a name
/// is added, not on every row that copies it.
class CsvCells {
 public:
  /// Appends `text` as cell size(), quoted as csv_escape would.
  void add(std::string_view text);
  /// Cell `i`; aborts when i >= size(). The view lives as long as the table
  /// and is invalidated by add().
  CsvCell operator[](size_t i) const {
    CURTAIN_CHECK(i < ends_.size())
        << "CSV cell " << i << " of a " << ends_.size() << "-name table";
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return CsvCell{
        std::string_view(bytes_.data() + begin, ends_[i] - begin)};
  }
  size_t size() const { return ends_.size(); }

 private:
  std::string bytes_;         // the cells back to back
  std::vector<size_t> ends_;  // cell i is [ends_[i - 1], ends_[i])
};

/// A text cell written straight into the row: `write(char* at)` writes at
/// most `max_text` bytes at `at` and returns one past the last byte of the
/// text; the writer then quotes that text in place (quote_csv_cell). Lists
/// (answer addresses, traceroute hops) go into rows this way, without an
/// intermediate string.
template <typename Write>
struct CsvInPlace {
  size_t max_text;
  Write write;
};
template <typename Write>
char* put_csv_cell(char* at, const CsvInPlace<Write>& cell) {
  return quote_csv_cell(at, cell.write(at));
}

/// Streams rows to any std::ostream. The writer does not own the stream.
///
/// Every row is formatted into one reused buffer and leaves in one write.
/// Cells are written in place: integers and doubles through std::to_chars
/// (doubles byte-identical to printf("%.6g"), with non-finite values
/// spelled "inf", "-inf", "nan"), text from a view, quoted per csv_escape
/// only when it contains a comma, quote, CR or LF, a CsvCell as its
/// preformatted bytes and a CsvInPlace by its own writer. Nothing is
/// allocated once the buffer has grown to the widest row.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void row(std::initializer_list<std::string_view> fields);

  /// One row from typed cells: integers (bool and char as numbers),
  /// doubles, CsvCell, CsvInPlace, and anything convertible to
  /// std::string_view.
  template <typename... Ts>
  void typed_row(const Ts&... fields) {
    write_cells(cell(fields)...);
  }

 private:
  // Normalizes a typed_row argument to one of the cell kinds; unary plus
  // promotes bool and char to int, which prints them as numbers.
  static std::string_view cell(std::string_view text) { return text; }
  static CsvCell cell(CsvCell text) { return text; }
  template <typename Write>
  static const CsvInPlace<Write>& cell(const CsvInPlace<Write>& text) {
    return text;
  }
  static double cell(double v) { return v; }
  template <typename T>
    requires std::is_integral_v<T>
  static auto cell(T v) {
    return +v;
  }

  static size_t max_chars(std::string_view text) { return 2 * text.size() + 2; }
  static size_t max_chars(CsvCell text) { return text.bytes.size(); }
  template <typename Write>
  static size_t max_chars(const CsvInPlace<Write>& text) {
    return 2 * text.max_text + 2;
  }
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
