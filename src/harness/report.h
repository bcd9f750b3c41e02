// Table/CSV rendering of experiment results for the bench binaries.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace vdbg::harness {

/// The paper's name for each evaluated system: real hardware, the
/// lightweight VMM, and the hosted VMware-WS4-like full VMM.
std::string_view platform_name(fleet::UnitKind k);

/// Human-readable fixed-width table, one row per measurement.
void print_table(std::ostream& os, const std::vector<Measurement>& rows);

/// Machine-readable CSV (header + rows), for replotting Fig. 3.1.
void print_csv(std::ostream& os, const std::vector<Measurement>& rows);

}  // namespace vdbg::harness
