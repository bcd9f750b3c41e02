// Microbenchmarks of the VX32 interpreter itself (google-benchmark): how
// fast the simulation substrate executes guest code on the host, plus the
// simulated cycles-per-instruction the cost model charges. These calibrate
// how much wall-clock the Fig. 3.1 sweep costs and sanity-check the CPI
// assumptions documented in cpu/cost_model.h.
//
// Each loop benchmark runs once per execution tier: Arg(0) is the pre-cache
// interpreter (block cache killed), Arg(1) the predecoded block cache (the
// default configuration). Compare guest_instr_per_s across the /0 and /1
// rows to read the per-tier speedup on a tight loop. BM_StreamTierSpeedup
// measures the same ratio end to end, on the paper's LVMM streaming
// workload, and exports it as a counter so CI can gate it
// (tools/bench_baseline.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "asm/assembler.h"
#include "common/units.h"
#include "cpu/cpu.h"
#include "fleet/machine_unit.h"

namespace {

using namespace vdbg;
using namespace vdbg::vasm;
using cpu::kR0;
using cpu::kR1;
using cpu::kR2;

class NullBus final : public cpu::IoBus {
 public:
  u32 io_read(u16) override { return 0; }
  void io_write(u16, u32) override {}
};

struct Rig {
  Rig() : mem(4 * 1024 * 1024), cpu_(mem, bus, nullptr) {}
  /// tier 0 = slow interpreter, 1 = block cache.
  void set_tier(int tier) { cpu_.set_block_cache_enabled(tier >= 1); }
  cpu::PhysMem mem;
  NullBus bus;
  cpu::Cpu cpu_;
};

void load(Rig& rig, const std::function<void(Assembler&)>& emit) {
  Assembler a(0x1000);
  emit(a);
  auto p = a.finalize();
  p.load(rig.mem);
  rig.cpu_.state().pc = 0x1000;
}

void report_tier_counters(benchmark::State& state, const Rig& rig) {
  state.counters["guest_instr_per_s"] = benchmark::Counter(
      double(rig.cpu_.stats().instructions), benchmark::Counter::kIsRate);
  state.counters["sim_cpi"] =
      double(rig.cpu_.cycles()) / double(rig.cpu_.stats().instructions);
}

void emit_alu_loop(Assembler& a) {
  a.movi(kR0, u32{0});
  a.label("loop");
  a.addi(kR0, kR0, u32{1});
  a.xori(kR1, kR0, u32{0x55});
  a.shli(kR2, kR1, 3);
  a.cmpi(kR0, u32{0xffffffff});
  a.jnz(l("loop"));
}

void BM_AluLoop(benchmark::State& state) {
  Rig rig;
  rig.set_tier(int(state.range(0)));
  load(rig, emit_alu_loop);
  for (auto _ : state) {
    rig.cpu_.run(10000);
  }
  report_tier_counters(state, rig);
}
BENCHMARK(BM_AluLoop)->Arg(0)->Arg(1);

void BM_MemoryCopyLoop(benchmark::State& state) {
  Rig rig;
  rig.set_tier(int(state.range(0)));
  load(rig, [](Assembler& a) {
    a.movi(kR0, u32{0x10000});  // src
    a.movi(kR1, u32{0x20000});  // dst
    a.label("loop");
    a.ld32(kR2, kR0, 0);
    a.st32(kR1, 0, kR2);
    a.addi(kR0, kR0, u32{4});
    a.addi(kR1, kR1, u32{4});
    a.cmpi(kR0, u32{0x18000});
    a.jnz(l("loop"));
    a.movi(kR0, u32{0x10000});
    a.movi(kR1, u32{0x20000});
    a.jmp(l("loop"));
  });
  for (auto _ : state) {
    rig.cpu_.run(10000);
  }
  report_tier_counters(state, rig);
}
BENCHMARK(BM_MemoryCopyLoop)->Arg(0)->Arg(1);

void BM_CallRetLoop(benchmark::State& state) {
  Rig rig;
  rig.set_tier(int(state.range(0)));
  load(rig, [](Assembler& a) {
    a.movi(cpu::kSp, u32{0x8000});
    a.label("loop");
    a.call(l("fn"));
    a.jmp(l("loop"));
    a.label("fn");
    a.addi(kR0, kR0, u32{1});
    a.ret();
  });
  for (auto _ : state) {
    rig.cpu_.run(10000);
  }
  report_tier_counters(state, rig);
}
BENCHMARK(BM_CallRetLoop)->Arg(0)->Arg(1);

// Tier-1-over-tier-0 guest throughput on an LVMM streaming slice (disk to
// UDP at a saturating 2000 Mbps offered), exported as a counter so
// tools/check_bench.py can gate it (a cross-row comparison is outside that
// gate's model). Two units, one per tier, run the same deterministic
// workload; each iteration advances both by the same simulated slice,
// alternating, so host-speed drift hits both tiers alike. Both retire the
// identical instruction stream, so the host-time ratio is the
// guest-throughput ratio; tiers_identical echoes that contract.
void BM_StreamTierSpeedup(benchmark::State& state) {
  fleet::MachineUnit interp(fleet::UnitKind::kLvmm);
  fleet::MachineUnit cached(fleet::UnitKind::kLvmm);
  for (fleet::MachineUnit* u : {&interp, &cached}) {
    u->prepare(guest::RunConfig::for_rate_mbps(2000.0));
  }
  interp.machine().cpu().set_block_cache_enabled(false);
  // Warm both past boot into steady streaming.
  interp.machine().run_for(seconds_to_cycles(0.05));
  cached.machine().run_for(seconds_to_cycles(0.05));
  const Cycles slice = seconds_to_cycles(0.005);
  using clock = std::chrono::steady_clock;
  double t_interp = 0.0;
  double t_cached = 0.0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    interp.machine().run_for(slice);
    const auto t1 = clock::now();
    cached.machine().run_for(slice);
    const auto t2 = clock::now();
    t_interp += std::chrono::duration<double>(t1 - t0).count();
    t_cached += std::chrono::duration<double>(t2 - t1).count();
  }
  const auto& ci = interp.machine().cpu();
  const auto& cc = cached.machine().cpu();
  state.counters["block_cache_speedup_x"] =
      t_cached > 0.0 ? t_interp / t_cached : 0.0;
  state.counters["tiers_identical"] =
      ci.stats().instructions == cc.stats().instructions &&
              ci.cycles() == cc.cycles()
          ? 1.0
          : 0.0;
}
BENCHMARK(BM_StreamTierSpeedup)->Iterations(30)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
