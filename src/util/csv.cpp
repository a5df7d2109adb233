// lint-hot-path: typed_row runs once per exported record (millions per
// dataset); the row buffer is reused, so cell formatting must not allocate.
#include "util/csv.h"

#include <cmath>
#include <cstring>

namespace curtain::util {
namespace {

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
  if (!needs_quotes(field)) {
    std::memcpy(at, field.data(), field.size());
    return at + field.size();
  }
  *at++ = '"';
  for (const char c : field) {
    if (c == '"') *at++ = '"';
    *at++ = c;
  }
  *at++ = '"';
  return at;
}

char* put_csv_cell(char* at, double v) {
  if (!std::isfinite(v)) {
    const std::string_view name = v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
    std::memcpy(at, name.data(), name.size());
    return at + name.size();
  }
  // to_chars with a precision is specified to produce exactly what
  // printf("%.*g") does in the C locale.
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
