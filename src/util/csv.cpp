// lint-hot-path: typed_row runs once per exported record (millions per
// dataset); the row buffer is reused, so cell formatting must not allocate.
#include "util/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace curtain::util {
namespace {

/// `%.6g` of a finite v with 1e-4 <= |v| < 1e6, computed from its exact
/// binary value; nullptr (and nothing written) when v is outside that
/// range or rounds up to 1e+06, which print in exponent notation.
///
/// v = m / 2^s exactly, with m < 2^53 and 33 <= s <= 66 in this range.
/// For the decimal exponent x of |v| (10^x <= |v| < 10^(x+1), -4 <= x <= 5)
/// the six significant digits are m * 10^(5-x) / 2^s, rounded to nearest
/// with ties to even, as printf rounds the exact value; the product fits
/// in 128 bits. `%g` then prints them in fixed notation with 5-x
/// fraction digits, trailing zeros and a bare point removed.
char* put_six_digit_double(char* at, double v) {
  const double magnitude = std::fabs(v);
  if (!(magnitude >= 1e-4 && magnitude < 1e6)) return nullptr;
  uint64_t bits;
  std::memcpy(&bits, &magnitude, sizeof(bits));
  const uint64_t mantissa = (bits & ((uint64_t{1} << 52) - 1)) |
                            (uint64_t{1} << 52);
  const int shift = 1075 - static_cast<int>(bits >> 52);
  using u128 = unsigned __int128;
  static constexpr uint64_t kPow10[] = {1,       10,       100,     1000,
                                        10000,   100000,   1000000, 10000000,
                                        100000000, 1000000000};
  // Estimate x from the doubles nearest the powers of ten; the exact
  // digits below correct it when |v| sits between a power and its double.
  static constexpr double kBounds[] = {1e-3, 1e-2, 1e-1, 1e0, 1e1,
                                       1e2,  1e3,  1e4,  1e5};
  int x = -4;
  while (x < 5 && magnitude >= kBounds[x + 4]) ++x;
  u128 scaled = 0;
  uint64_t digits = 0;
  for (;;) {
    scaled = static_cast<u128>(mantissa) * kPow10[5 - x];
    digits = static_cast<uint64_t>(scaled >> shift);
    if (digits < 100000 && x > -4) {
      --x;
    } else if (digits >= 1000000 && x < 5) {
      ++x;
    } else {
      break;
    }
  }
  const u128 half = static_cast<u128>(1) << (shift - 1);
  const u128 rest = scaled & ((half << 1) - 1);
  if (rest > half || (rest == half && (digits & 1) != 0)) ++digits;
  if (digits == 1000000) {  // rounding carried into a seventh digit
    digits = 100000;
    ++x;
  }
  if (x > 5) return nullptr;

  char text[6];
  for (int i = 5; i >= 0; --i) {
    text[i] = static_cast<char>('0' + digits % 10);
    digits /= 10;
  }
  int last = 5;  // last significant digit once trailing zeros go
  while (last > 0 && text[last] == '0') --last;
  if (v < 0) *at++ = '-';
  if (x >= 0) {
    for (int i = 0; i <= x; ++i) *at++ = text[i];
    if (last > x) {
      *at++ = '.';
      for (int i = x + 1; i <= last; ++i) *at++ = text[i];
    }
  } else {
    *at++ = '0';
    *at++ = '.';
    for (int i = x + 1; i < 0; ++i) *at++ = '0';
    for (int i = 0; i <= last; ++i) *at++ = text[i];
  }
  return at;
}

/// The csv_escape rule, find_first_of(",\"\n\r"), as one pass of plain
/// compares (string_view::find_first_of calls memchr once per byte).
bool needs_quotes(std::string_view field) {
  for (const char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

std::string csv_escape(const std::string& field) {
  if (!needs_quotes(field)) return field;
  std::string out(2 * field.size() + 2, '\0');
  out.resize(static_cast<size_t>(put_csv_cell(out.data(), field) -
                                 out.data()));
  return out;
}

char* put_csv_cell(char* at, std::string_view field) {
  std::memcpy(at, field.data(), field.size());
  return quote_csv_cell(at, at + field.size());
}

char* quote_csv_cell(char* begin, char* end) {
  const std::string_view text(begin, static_cast<size_t>(end - begin));
  if (!needs_quotes(text)) return end;
  // Escape back to front, so each byte moves before anything lands on it:
  // the text grows by one byte per quote plus the two enclosing quotes.
  char* const cell_end =
      end + std::count(text.begin(), text.end(), '"') + 2;
  char* out = cell_end;
  *--out = '"';
  for (char* in = end; in != begin;) {
    const char c = *--in;
    *--out = c;
    if (c == '"') *--out = '"';
  }
  *--out = '"';
  return cell_end;
}

void CsvCells::add(std::string_view text) {
  const size_t begin = bytes_.size();
  bytes_.resize(begin + 2 * text.size() + 2);
  char* const end = put_csv_cell(bytes_.data() + begin, text);
  bytes_.resize(static_cast<size_t>(end - bytes_.data()));
  ends_.push_back(bytes_.size());
}

char* put_csv_cell(char* at, double v) {
  if (!std::isfinite(v)) {
    const std::string_view name = v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
    std::memcpy(at, name.data(), name.size());
    return at + name.size();
  }
  // Exported measurements (latencies, distances, fractions) almost all
  // take the exact six-digit path; everything else goes through to_chars
  // with a precision, which is specified to produce exactly what
  // printf("%.*g") does in the C locale.
  if (char* end = put_six_digit_double(at, v)) return end;
  return std::to_chars(at, at + kCsvDoubleChars, v,
                       std::chars_format::general, 6)
      .ptr;
}

void CsvWriter::row(std::initializer_list<std::string_view> fields) {
  size_t bytes = fields.size() + 1;
  for (const std::string_view field : fields) bytes += max_chars(field);
  char* at = reserve(bytes);
  for (const std::string_view field : fields) {
    at = put_csv_cell(at, field);
    *at++ = ',';
  }
  end_row(at);
}

void CsvWriter::end_row(char* end) {
  char* const begin = line_.data();
  if (end == begin) {
    *end++ = '\n';
  } else {
    end[-1] = '\n';
  }
  out_.write(begin, end - begin);
}

}  // namespace curtain::util
