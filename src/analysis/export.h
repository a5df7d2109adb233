// Record export: CSV dumps of the campaign's measurement records.
//
// The paper released its dataset from the project website; this module is
// the equivalent facility — one CSV per record type plus a manifest, so
// external tooling (pandas/R/gnuplot) can re-analyze the campaign.
//
// One export walk: export_records (or any single export_*_csv writer)
// walks a retained RecordStore through its cursor ranges. Every row finds
// its experiment's carrier in its own record block, and carrier names come
// from the table the run was built from (RecordStore::carriers()).
#pragma once

#include <ostream>
#include <string>

#include "measure/record_store.h"

namespace curtain::analysis {

/// Writers for each record type. Each emits a header row followed by one
/// row per record; experiment context is denormalized into every row.
void export_experiments_csv(const measure::RecordStore& records,
                            std::ostream& out);
void export_resolutions_csv(const measure::RecordStore& records,
                            std::ostream& out);
void export_probes_csv(const measure::RecordStore& records, std::ostream& out);
void export_traceroutes_csv(const measure::RecordStore& records,
                            std::ostream& out);
void export_resolver_observations_csv(const measure::RecordStore& records,
                                      std::ostream& out);
void export_vantage_probes_csv(const measure::RecordStore& records,
                               std::ostream& out);

/// Writes the whole record stream into `directory` (experiments.csv,
/// resolutions.csv, probes.csv, traceroutes.csv, resolver_observations.csv,
/// vantage_probes.csv, MANIFEST.txt). Returns the number of files written
/// successfully.
int export_records(const measure::RecordStore& records,
                   const std::string& directory);

}  // namespace curtain::analysis
