// Lint fixture: the same hazards as the bad_* files, each waived. This
// file must contribute zero findings (lint_test asserts the fixture
// directory's finding set comes entirely from the bad_* files).
// lint-hot-path (so the waived allocation below is actually exercised)
#include <unordered_map>
#include "core/study.h"  // lint: layering (fixture exercises a waived upward edge)

std::unordered_map<int, double> totals;

static int g_fixture_hits = 0;  // lint: shared-static (fixture counter)

double max_total() {
  double best = 0;
  for (const auto& [k, v] : totals) best = pick(best, v);  // lint: order-insensitive
  return best;
}

void timed() {
  auto t = std::chrono::steady_clock::now();  // lint: wallclock
  int jitter = rand();                        // lint: entropy
  net::Rng rng(77);                           // lint: rng-seed
}

int* scratch_slot() {
  return new int(0);  // lint: hot-alloc (fixture exercises a waived allocation)
}

std::string label_copy(const char* label) {
  return std::string(label);  // lint: hot-alloc (fixture exercises a waived temporary)
}

struct OkRetainer {
  std::vector<DnsMeasurement> sealed_rows;       // lint: bounded
  std::vector<RecordBlock> retained;             // lint: record-growth (test keeps blocks)
};
