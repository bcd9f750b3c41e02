// Quickstart: the smallest end-to-end use of the library.
//
// Boots the MiniTactix guest OS under the lightweight virtual machine
// monitor, streams the paper's disk->UDP workload for a simulated quarter
// second at 100 Mbps, and prints what happened: guest counters, monitor
// VM-exit statistics, and what the receiving end of the wire saw.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"

using namespace vdbg;

int main() {
  // 1. A platform bundles the simulated PC/AT machine, the guest image and
  //    (here) the lightweight monitor.
  fleet::MachineUnit platform(fleet::UnitKind::kLvmm);

  // 2. Configure the workload: 100 Mbps of 1 KiB UDP segments cut from
  //    2 MiB reads striped over the three SCSI disks.
  platform.prepare(guest::RunConfig::for_rate_mbps(100.0));

  // 3. Validate everything that crosses the wire against the disk content.
  auto rc = platform.run_config();
  platform.sink().set_payload_validator(guest::make_stream_validator(rc));

  // 4. Run a quarter of a simulated second.
  platform.machine().run_for(seconds_to_cycles(0.25));

  // 5. Report.
  const auto mb = platform.mailbox();
  const auto& sink = platform.sink();
  const auto& exits = platform.monitor()->exit_stats();

  std::printf("guest:   booted=%s ticks=%u segments=%u disk_reads=%u "
              "syscalls=%u errors=%u\n",
              mb.magic == guest::Mailbox::kMagicValue ? "yes" : "NO",
              mb.ticks, mb.segments_sent, mb.disk_reads, mb.syscalls,
              mb.last_error);
  std::printf("monitor: vm_exits=%llu (privileged=%llu io=%llu intr=%llu "
              "inject=%llu shadow=%llu) intact=%s\n",
              (unsigned long long)exits.total,
              (unsigned long long)exits.privileged_instr,
              (unsigned long long)exits.io_emulated,
              (unsigned long long)exits.interrupts,
              (unsigned long long)exits.injections,
              (unsigned long long)exits.shadow_syncs,
              platform.monitor()->monitor_memory_intact() ? "yes" : "NO");
  std::printf("wire:    frames=%llu bytes=%llu checksum_errors=%llu "
              "gaps=%llu content_errors=%llu\n",
              (unsigned long long)sink.frames(),
              (unsigned long long)sink.payload_bytes(),
              (unsigned long long)sink.checksum_errors(),
              (unsigned long long)sink.sequence_gaps(),
              (unsigned long long)sink.content_errors());

  const bool ok = mb.magic == guest::Mailbox::kMagicValue &&
                  mb.last_error == 0 && sink.frames() > 0 &&
                  sink.checksum_errors() == 0 && sink.content_errors() == 0;
  std::printf("\nquickstart: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
