// Automatic repair-list maintenance for PAIR — the runtime counterpart of
// the MarkSymbolErased API.
//
// When reads of a row start reporting detected-uncorrectable errors, the
// maintenance path runs an in-DRAM BIST-style march on that row: per
// device it saves the raw row image, writes its complement, reads back,
// and restores. Any cell that cannot hold both values is permanently
// defective; the complement test exposes every stuck bit regardless of the
// data it happened to match. PairScheme::SymbolOfBit maps each defective
// cell to its codeword symbol (data or check), which is registered on the
// scheme's erasure list — lifting correction power toward r per codeword
// for exactly the damaged locations. A defective spare cell that no
// codeword uses is counted and left alone.
//
// Codewords with more defects than the erasure budget are reported as
// unrepairable (candidates for row sparing / post-package repair).
#pragma once

#include "core/pair_scheme.hpp"

namespace pair_ecc::core {

struct RepairReport {
  unsigned defective_bits = 0;     ///< stuck cells found by the march
  unsigned symbols_marked = 0;     ///< codeword positions newly erased
  unsigned unrepairable_codewords = 0;  ///< > r defective symbols
};

/// Runs the march on (bank, row) of every data device, registers erasures
/// on `scheme`, and restores the row's stored data. Defects in different
/// codewords repair independently. Repair-list entries are column-scoped
/// (device, pin, codeword, position) — like the bad-bitline defects they
/// model, they apply across rows.
RepairReport DiagnoseAndRepairRow(PairScheme& scheme, unsigned bank,
                                  unsigned row);

/// Post-package repair (row sparing) for damage beyond the erasure budget —
/// the JEDEC hPPR flow: salvage every line that still decodes, retire the
/// defective physical row on every data device, and re-write the salvaged
/// content into the fresh spare row (one ReadLines and one WriteLines over
/// the row's columns). Lines whose codewords were uncorrectable are
/// re-written best-effort but counted as lost (the host restores them from
/// a higher level).
struct SparingReport {
  bool repaired = false;         ///< false: some device was out of spares
  unsigned lines_salvaged = 0;   ///< decoded clean/corrected before sparing
  unsigned lines_lost = 0;       ///< were detected-uncorrectable
};

SparingReport SpareRow(PairScheme& scheme, unsigned bank, unsigned row);

}  // namespace pair_ecc::core
