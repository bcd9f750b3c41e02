#include "harness/report.h"

#include <iomanip>
#include <ostream>

namespace vdbg::harness {

std::string_view platform_name(fleet::UnitKind k) {
  switch (k) {
    case fleet::UnitKind::kNative: return "real-hardware";
    case fleet::UnitKind::kLvmm: return "lvmm";
    case fleet::UnitKind::kHosted: return "vmware-ws4-like";
  }
  return "?";
}

void print_table(std::ostream& os, const std::vector<Measurement>& rows) {
  os << std::left << std::setw(18) << "platform" << std::right
     << std::setw(10) << "offered" << std::setw(10) << "achieved"
     << std::setw(9) << "load%" << std::setw(10) << "segs" << std::setw(9)
     << "exits" << std::setw(8) << "underr" << std::setw(6) << "ok"
     << "\n";
  for (const auto& m : rows) {
    os << std::left << std::setw(18) << platform_name(m.platform)
       << std::right << std::fixed << std::setprecision(1) << std::setw(10)
       << m.offered_mbps << std::setw(10) << m.achieved_mbps << std::setw(9)
       << m.cpu_load * 100.0 << std::setw(10) << m.segments_sent
       << std::setw(9) << m.vm_exits << std::setw(8) << m.underruns
       << std::setw(6) << (m.guest_healthy ? "y" : "N") << "\n";
  }
}

void print_csv(std::ostream& os, const std::vector<Measurement>& rows) {
  os << "platform,offered_mbps,achieved_mbps,cpu_load,segments,vm_exits,"
        "injections,underruns,ring_full,checksum_errors,sequence_gaps,"
        "healthy\n";
  for (const auto& m : rows) {
    os << platform_name(m.platform) << ',' << m.offered_mbps << ','
       << m.achieved_mbps << ',' << m.cpu_load << ',' << m.segments_sent
       << ',' << m.vm_exits << ',' << m.injections << ',' << m.underruns
       << ',' << m.ring_full << ',' << m.checksum_errors << ','
       << m.sequence_gaps << ',' << (m.guest_healthy ? 1 : 0) << "\n";
  }
}

}  // namespace vdbg::harness
