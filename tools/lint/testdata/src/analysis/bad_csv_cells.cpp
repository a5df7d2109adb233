// Lint fixture: the per-cell copies the hot-alloc rule flags as
// std::string(...) temporaries on a lint-hot-path file — a C string and a
// view each copied into a std::string just to be written out. The empty
// std::string() at the bottom copies nothing and must not fire.
// lint-hot-path
#include <string>
#include <string_view>

const char* kind_name(int kind);
std::string_view host_of(int domain);
void write_cells(const std::string& a, const std::string& b);

void export_row(int kind, int domain) {
  write_cells(std::string(kind_name(kind)), std::string(host_of(domain)));
}

void export_blank() { write_cells(std::string(), std::string()); }
