// Measures the *simulated* cost of the primitive operations whose ratio
// drives Fig. 3.1: a syscall round trip (INT + IRET) and a device interrupt
// service, on native hardware versus under the lightweight monitor. Reported
// in simulated cycles per operation, derived from guest-visible counters —
// this is the per-exit tax the paper's design amortises with passthrough.
#include <benchmark/benchmark.h>

#include <string>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "vmm/lvmm.h"

namespace {

using namespace vdbg;

/// Runs a platform at a fixed low rate and attributes busy cycles to
/// syscalls: busy_cycles / syscall_count. Includes the full path (INT,
/// dispatch, send work, IRET, interrupts) — the *difference* between
/// platforms is the virtualisation tax.
double cycles_per_syscall(fleet::UnitKind kind) {
  fleet::MachineUnit p(kind);
  p.prepare(guest::RunConfig::for_rate_mbps(40.0));
  p.machine().run_for(seconds_to_cycles(0.05));
  const auto mb0 = p.mailbox();
  const auto probe = p.machine().begin_load_probe();
  p.machine().run_for(seconds_to_cycles(0.05));
  const auto mb1 = p.mailbox();
  const Cycles busy = static_cast<Cycles>(
      p.machine().cpu_load(probe) * seconds_to_cycles(0.05));
  const u64 syscalls = mb1.syscalls - mb0.syscalls;
  return syscalls ? double(busy) / double(syscalls) : 0.0;
}

void BM_SyscallPathNative(benchmark::State& state) {
  double v = 0;
  for (auto _ : state) v = cycles_per_syscall(fleet::UnitKind::kNative);
  state.counters["sim_cycles_per_syscall"] = v;
}
BENCHMARK(BM_SyscallPathNative)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SyscallPathLvmm(benchmark::State& state) {
  double v = 0;
  for (auto _ : state) v = cycles_per_syscall(fleet::UnitKind::kLvmm);
  state.counters["sim_cycles_per_syscall"] = v;
}
BENCHMARK(BM_SyscallPathLvmm)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SyscallPathHosted(benchmark::State& state) {
  double v = 0;
  for (auto _ : state) v = cycles_per_syscall(fleet::UnitKind::kHosted);
  state.counters["sim_cycles_per_syscall"] = v;
}
BENCHMARK(BM_SyscallPathHosted)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Average monitor cycles charged per VM exit across a streaming run, with
/// the guest-memory translation cache on (arg 1) or off (arg 0). The
/// per-kind breakdown and vTLB hit rate come from the new VmExitStats /
/// GuestMemory counters.
void BM_PerExitCharge(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  double v = 0;
  for (auto _ : state) {
    fleet::MachineUnit p(fleet::UnitKind::kLvmm);
    p.prepare(guest::RunConfig::for_rate_mbps(40.0));
    p.monitor()->guest_mem().set_translation_cache_enabled(cached);
    p.machine().run_for(seconds_to_cycles(0.1));
    const auto& ex = p.monitor()->exit_stats();
    v = ex.total ? double(ex.charged_cycles) / double(ex.total) : 0.0;
    for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
      const auto& ks = ex.by_kind[k];
      if (ks.count == 0) continue;
      state.counters["mean_" + std::string(vmm::exit_kind_name(
                                   static_cast<vmm::ExitKind>(k)))] = ks.mean();
    }
    const auto& gm = p.monitor()->guest_mem().stats();
    state.counters["vtlb_hit_rate"] =
        gm.lookups ? double(gm.hits) / double(gm.lookups) : 0.0;
  }
  state.counters["sim_cycles_per_exit"] = v;
}
BENCHMARK(BM_PerExitCharge)
    ->Arg(1)
    ->Arg(0)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
