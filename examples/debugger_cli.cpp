// Interactive remote-debugger shell against a live MiniTactix under the
// lightweight monitor.
//
//   ./debugger_cli            reads commands from stdin (pipe a script, or
//                             type interactively; `help` lists commands)
//   ./debugger_cli --demo     runs a canned transcript that exercises
//                             breakpoints, watchpoints, tracing and memory
//
// The target streams the paper's disk->UDP workload at 60 Mbps the whole
// time — debug it live, as the paper intends.
#include <iostream>
#include <sstream>
#include <string>

#include "common/units.h"
#include "debug/cli.h"
#include "fleet/machine_unit.h"
#include "fleet/multiverse.h"
#include "guest/minitactix.h"
#include "vmm/flight_recorder.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"
#include "vmm/trace.h"

using namespace vdbg;

int main(int argc, char** argv) {
  fleet::MachineUnit platform(fleet::UnitKind::kLvmm);
  platform.prepare(guest::RunConfig::for_rate_mbps(60.0));

  vmm::DebugStub stub(*platform.monitor(), platform.machine().uart());
  stub.attach();
  vmm::ExitTracer tracer;
  platform.monitor()->set_tracer(&tracer);

  // Periodic checkpoints make the reverse-continue / reverse-step commands
  // available (the stub anchors extra checkpoints at every resume).
  vmm::TimeTravel tt(*platform.monitor());
  stub.set_time_travel(&tt);
  tt.enable();

  // `multiverse <k>` / `bugtrap <pred>` fork perturbed COW timelines from
  // a checkpoint taken at the current stop and run them on fleet workers.
  fleet::MultiverseConfig mvcfg;
  mvcfg.run = guest::RunConfig::for_rate_mbps(60.0);
  fleet::MultiverseService multiverse(stub, tt, mvcfg);

  // `metrics [prefix]` and `dump` route through these over the wire.
  stub.set_metrics(&platform.metrics());
  vmm::FlightRecorder::Config fc;
  fc.file_prefix = "debugger-cli-flight";
  vmm::FlightRecorder flight(*platform.monitor(), fc);
  flight.set_metrics(&platform.metrics());
  stub.set_flight_recorder(&flight);

  // The VDBG_FLIGHT_LOOP env hook arms continuous capture on the unit
  // during prepare(); wire it up so `profile` / `history` / `window`
  // answer over this stub.
  if (vmm::FlightLoop* fl = platform.flight_loop()) {
    stub.set_flight_loop(fl);
  }

  debug::RemoteDebugger dbg(platform.machine());
  dbg.add_symbols(platform.image().kernel);
  dbg.add_symbols(platform.image().app);
  if (!dbg.connect()) {
    std::cerr << "stub did not answer\n";
    return 1;
  }
  std::cout << "connected to MiniTactix under the LVMM (streaming at "
               "60 Mbps). Type 'help'.\n";

  debug::DebuggerCli cli(dbg, platform.machine(), std::cout);

  const bool demo = argc > 1 && std::string(argv[1]) == "--demo";
  if (demo) {
    std::istringstream script(
        "run 30\n"
        "int\n"
        "regs\n"
        "disas\n"
        "break isr_nic\n"
        "c\n"
        "regs\n"
        "delete isr_nic\n"
        "x 0x1000 48\n"
        "watch 0x1004\n"
        "c\n"
        "c\n"
        "reverse-step\n"
        "regs\n"
        "s\n"
        "reverse-continue\n"
        "unwatch 0x1004\n"
        "c 1\n"
        "trace on\n"
        "run 5\n"
        "trace show 6\n"
        "run 20\n"
        "status\n"
        "quit\n");
    cli.run(script, /*echo=*/true);
    return 0;
  }
  cli.run(std::cin, /*echo=*/false);
  return 0;
}
