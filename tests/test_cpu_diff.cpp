// Differential testing of the interpreter.
//
// Two layers:
//  * RandomAluMemProgramsMatchReference — random straight-line ALU/memory
//    programs executed both by the VX32 interpreter and by a tiny
//    independent reference model of the ISA semantics; final register files
//    and memory effects must agree exactly.
//  * The two-tier lockstep fuzz — the block-cache tier (tier 1) versus the
//    kill-switched slow interpreter (tier 0), run in lockstep over random
//    programs with branches, calls, software interrupts, self-modifying
//    stores and deterministically injected external interrupts. Every
//    slice, the architectural state, cycle count and (non-telemetry) stats
//    of both CPUs must be bit-identical; that is the fast path's
//    correctness contract.
//  * Directed cached-block cases: self-modifying guest stores and
//    breakpoint patching of a hot loop, a loop cut by a page boundary, and
//    a self-call whose pushes walk into its own code page.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "testutil.h"

namespace vdbg::test {
namespace {

using namespace vasm;
using cpu::Instr;
using cpu::Opcode;

/// Full byte image of a machine's physical memory (COW pages are not
/// contiguous, so whole-memory compares go through read_block).
std::vector<u8> dump_mem(const cpu::PhysMem& m) {
  std::vector<u8> out(m.size());
  m.read_block(0, out);
  return out;
}

/// Minimal independent model of the ALU/memory subset (written from the ISA
/// spec in isa.h, deliberately NOT sharing code with the interpreter).
struct RefModel {
  std::array<u32, 8> r{};
  std::map<u32, u32> mem;  // word-addressed sparse memory

  u32 load(u32 addr) const {
    auto it = mem.find(addr & ~3u);
    return it == mem.end() ? 0 : it->second;
  }
  void store(u32 addr, u32 v) { mem[addr & ~3u] = v; }

  void exec(const Instr& in) {
    const u32 a = r[in.rs1 & 7];
    const u32 b = r[in.rs2 & 7];
    auto& d = r[in.rd & 7];
    switch (in.op) {
      case Opcode::kMovI: d = in.imm; break;
      case Opcode::kMov: d = a; break;
      case Opcode::kAdd: d = a + b; break;
      case Opcode::kSub: d = a - b; break;
      case Opcode::kAnd: d = a & b; break;
      case Opcode::kOr: d = a | b; break;
      case Opcode::kXor: d = a ^ b; break;
      case Opcode::kShl: d = a << (b & 31); break;
      case Opcode::kShr: d = a >> (b & 31); break;
      case Opcode::kSar: d = u32(i32(a) >> (b & 31)); break;
      case Opcode::kMul: d = a * b; break;
      case Opcode::kAddI: d = a + in.imm; break;
      case Opcode::kSubI: d = a - in.imm; break;
      case Opcode::kAndI: d = a & in.imm; break;
      case Opcode::kOrI: d = a | in.imm; break;
      case Opcode::kXorI: d = a ^ in.imm; break;
      case Opcode::kShlI: d = a << (in.imm & 31); break;
      case Opcode::kShrI: d = a >> (in.imm & 31); break;
      case Opcode::kSarI: d = u32(i32(a) >> (in.imm & 31)); break;
      case Opcode::kMulI: d = a * in.imm; break;
      case Opcode::kLd32: d = load(a + in.imm); break;
      case Opcode::kSt32: store(a + in.imm, b); break;
      default: break;
    }
  }
};

// Scratch RAM the random programs may address: one aligned 4 KiB window.
constexpr u32 kScratch = 0x40000;

Instr random_instr(Rng& rng) {
  static const Opcode kOps[] = {
      Opcode::kMovI, Opcode::kMov,  Opcode::kAdd,  Opcode::kSub,
      Opcode::kAnd,  Opcode::kOr,   Opcode::kXor,  Opcode::kShl,
      Opcode::kShr,  Opcode::kSar,  Opcode::kMul,  Opcode::kAddI,
      Opcode::kSubI, Opcode::kAndI, Opcode::kOrI,  Opcode::kXorI,
      Opcode::kShlI, Opcode::kShrI, Opcode::kSarI, Opcode::kMulI,
      Opcode::kLd32, Opcode::kSt32};
  Instr in;
  in.op = kOps[rng.below(std::size(kOps))];
  // r7 (sp) excluded so the harness stack stays usable; r6 reserved as the
  // scratch-window base register.
  in.rd = static_cast<u8>(rng.below(6));
  in.rs1 = static_cast<u8>(rng.below(6));
  in.rs2 = static_cast<u8>(rng.below(6));
  in.imm = rng.next_u32();
  if (in.op == Opcode::kLd32 || in.op == Opcode::kSt32) {
    // Constrain the effective address: base = r6 (always kScratch),
    // displacement inside the window, word aligned.
    in.rs1 = 6;
    in.imm = static_cast<u32>(rng.below(1024)) * 4;
    if (in.op == Opcode::kSt32) in.rs2 = static_cast<u8>(rng.below(6));
  }
  return in;
}

TEST(CpuDifferential, RandomAluMemProgramsMatchReference) {
  Rng rng(20260705);
  for (int trial = 0; trial < 40; ++trial) {
    // Generate a straight-line program.
    std::vector<Instr> prog;
    const unsigned len = static_cast<unsigned>(rng.between(10, 120));
    for (unsigned i = 0; i < len; ++i) prog.push_back(random_instr(rng));

    // Run on the interpreter.
    CpuHarness h;
    h.load([&](Assembler& a) {
      a.movi(cpu::kR6, u32{kScratch});
      for (const auto& in : prog) {
        const auto bytes = in.encode();
        for (u8 byte : bytes) a.data8(byte);
      }
      a.hlt();
    });
    ASSERT_EQ(h.run(2000), cpu::RunExit::kHalted) << "trial " << trial;

    // Run on the reference model.
    RefModel ref;
    ref.r[6] = kScratch;
    for (const auto& in : prog) ref.exec(in);

    for (unsigned i = 0; i < 6; ++i) {
      EXPECT_EQ(h.cpu.state().regs[i], ref.r[i])
          << "trial " << trial << " r" << i;
    }
    EXPECT_EQ(h.cpu.state().regs[6], kScratch);
    for (const auto& [addr, val] : ref.mem) {
      EXPECT_EQ(h.mem.read32(addr), val)
          << "trial " << trial << " mem @" << std::hex << addr;
    }
  }
}

TEST(CpuDifferential, FlagSemanticsMatchTwoComplementIdentities) {
  // For random a,b: SUB sets C iff a<b (unsigned), Z iff a==b, and the
  // signed comparison (N!=V) iff (i32)a < (i32)b — checked through the
  // conditional-branch outcomes.
  Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    const u32 a = rng.next_u32();
    const u32 b = rng.chance(0.3) ? a : rng.next_u32();
    CpuHarness h;
    h.load([&](Assembler& asmr) {
      asmr.movi(cpu::kR1, u32{a});
      asmr.movi(cpu::kR2, u32{b});
      asmr.movi(cpu::kR0, u32{0});
      asmr.cmp(cpu::kR1, cpu::kR2);
      asmr.jb(l("below"));
      asmr.jmp(l("check_eq"));
      asmr.label("below");
      asmr.ori(cpu::kR0, cpu::kR0, u32{1});
      asmr.label("check_eq");
      asmr.cmp(cpu::kR1, cpu::kR2);
      asmr.jz(l("eq"));
      asmr.jmp(l("check_lt"));
      asmr.label("eq");
      asmr.ori(cpu::kR0, cpu::kR0, u32{2});
      asmr.label("check_lt");
      asmr.cmp(cpu::kR1, cpu::kR2);
      asmr.jl(l("lt"));
      asmr.hlt();
      asmr.label("lt");
      asmr.ori(cpu::kR0, cpu::kR0, u32{4});
      asmr.hlt();
    });
    ASSERT_EQ(h.run(100), cpu::RunExit::kHalted);
    const u32 expect = (a < b ? 1u : 0u) | (a == b ? 2u : 0u) |
                       (i32(a) < i32(b) ? 4u : 0u);
    EXPECT_EQ(h.reg(cpu::kR0), expect)
        << "trial " << trial << " a=" << a << " b=" << b;
  }
}

// ---------------------------------------------------------------------------
// Cached vs uncached differential fuzz
// ---------------------------------------------------------------------------

/// Interrupt line the test asserts by hand (deterministically, between run
/// slices) so both rigs see the same external-interrupt timing.
class ScriptedIntr final : public cpu::IntrLine {
 public:
  bool intr_asserted() const override { return pending_; }
  u8 acknowledge() override {
    pending_ = false;
    return vector_;
  }
  void assert_vector(u8 v) {
    vector_ = v;
    pending_ = true;
  }
  bool pending() const { return pending_; }

 private:
  bool pending_ = false;
  u8 vector_ = 0;
};

/// One CPU with its own memory, scripted I/O and interrupt line.
struct DiffRig {
  DiffRig() : mem(1024 * 1024), cpu(mem, io, &intr) {}
  cpu::PhysMem mem;
  ScriptedIoBus io;
  ScriptedIntr intr;
  cpu::Cpu cpu;
};

constexpr u8 kExtVector = 48;  // external interrupts in the fuzz

/// Emits a 64-gate IDT whose handlers keep the program running: fault
/// vectors (< 32) skip the faulting instruction (saved pc += 8) and IRET;
/// trap-style vectors (software INT, external) plain IRET. Label names:
/// "skip_stub", "iret_stub", "idt".
void emit_fuzz_idt(Assembler& a) {
  using cpu::kR0;
  using cpu::kSp;
  a.label("skip_stub");
  a.push(kR0);
  // Frame after push: [r0, err, pc, psw, sp]; saved pc at sp+8.
  a.ld32(kR0, kSp, 8);
  a.addi(kR0, kR0, u32{8});
  a.st32(kSp, 8, kR0);
  a.pop(kR0);
  a.iret();
  a.label("iret_stub");
  a.iret();
  a.align(8);
  a.label("idt");
  for (u32 v = 0; v < 64; ++v) {
    a.data_ref(l(v < 32 ? "skip_stub" : "iret_stub"));
    a.data32(cpu::Gate{0, true, 0, 0}.pack_flags());
  }
}

/// A random control-flow-heavy program over labels "L0".."L<n-1>" placed
/// every 8 instructions. r6 = scratch base, r5 = program base (self-mod
/// store target), r0-r4 general. Returns nothing; emits into `a`.
void emit_fuzz_program(Assembler& a, Rng& rng, unsigned len) {
  using namespace cpu;
  const unsigned num_labels = len / 8 + 1;
  auto rnd_label = [&] { return l("L" + std::to_string(rng.below(num_labels))); };
  auto rnd_reg = [&] { return static_cast<Reg>(rng.below(5)); };  // r0-r4
  unsigned next_label = 0;
  for (unsigned i = 0; i < len; ++i) {
    if (i % 8 == 0 && next_label < num_labels) {
      a.label("L" + std::to_string(next_label++));
    }
    const unsigned kind = static_cast<unsigned>(rng.below(100));
    if (kind < 45) {
      // Plain ALU op (register or immediate form); memory is handled below.
      Instr in = random_instr(rng);
      while (in.op == Opcode::kLd32 || in.op == Opcode::kSt32) {
        in = random_instr(rng);
      }
      const auto bytes = in.encode();
      for (u8 byte : bytes) a.data8(byte);
    } else if (kind < 60) {
      // Scratch-window memory access, word aligned.
      const i32 disp = static_cast<i32>(rng.below(1024)) * 4;
      if (rng.chance(0.5)) {
        a.ld32(rnd_reg(), kR6, disp);
      } else {
        a.st32(kR6, disp, rnd_reg());
      }
    } else if (kind < 78) {
      // Control flow to a random label (forward or backward).
      switch (rng.below(6)) {
        case 0: a.jmp(rnd_label()); break;
        case 1: a.jz(rnd_label()); break;
        case 2: a.jnz(rnd_label()); break;
        case 3: a.jl(rnd_label()); break;
        case 4: a.jae(rnd_label()); break;
        default: a.cmpi(rnd_reg(), rng.next_u32()); break;
      }
    } else if (kind < 86) {
      // Call/ret pairs are intentionally unbalanced; a RET into garbage
      // faults and the skip handler moves on. Both rigs see it identically.
      if (rng.chance(0.7)) {
        a.call(rnd_label());
      } else {
        a.ret();
      }
    } else if (kind < 92) {
      // Trapping instructions: software INT (trap-style resume), BRK
      // (#BP skip), divide by a possibly-zero register (#DE skip).
      switch (rng.below(3)) {
        case 0: a.int_(static_cast<u8>(32 + rng.below(16))); break;
        case 1: a.brk(); break;
        default: a.divu(rnd_reg(), rnd_reg(), rnd_reg()); break;
      }
    } else if (kind < 96) {
      // Self-modifying store into the program image: r5 holds the program
      // base; clobber a random instruction word. The block cache must
      // detect the new page version; the uncached CPU refetches anyway.
      const i32 disp = static_cast<i32>(rng.below(len)) * 8 +
                       (rng.chance(0.5) ? 4 : 0);
      a.st32(kR5, disp, rnd_reg());
    } else {
      // Stack traffic.
      if (rng.chance(0.5)) {
        a.push(rnd_reg());
      } else {
        a.pop(rnd_reg());
      }
    }
  }
  while (next_label < num_labels) a.label("L" + std::to_string(next_label++));
  a.hlt();
}

/// Asserts rig `b` (the block-cache tier) is architecturally bit-identical to the
/// reference rig `a` (the slow interpreter) at a run-slice boundary.
void expect_rigs_identical(DiffRig& a, DiffRig& b, int trial, int slice,
                           const char* tier) {
  const auto& sa = a.cpu.state();
  const auto& sb = b.cpu.state();
  ASSERT_EQ(a.cpu.cycles(), b.cpu.cycles())
      << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.pc, sb.pc) << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.psw, sb.psw) << tier << " trial " << trial << " slice "
                            << slice;
  ASSERT_EQ(sa.regs, sb.regs) << tier << " trial " << trial << " slice "
                              << slice;
  ASSERT_EQ(sa.cr, sb.cr) << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(sa.idt_base, sb.idt_base);
  ASSERT_EQ(sa.idt_count, sb.idt_count);
  ASSERT_EQ(a.cpu.halted(), b.cpu.halted());
  ASSERT_EQ(a.intr.pending(), b.intr.pending());

  // Architectural stats must match exactly; block_* are fast-path-only
  // telemetry and excluded by contract.
  const auto& ta = a.cpu.stats();
  const auto& tb = b.cpu.stats();
  ASSERT_EQ(ta.instructions, tb.instructions)
      << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(ta.mem_accesses, tb.mem_accesses)
      << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(ta.io_accesses, tb.io_accesses);
  ASSERT_EQ(ta.exceptions, tb.exceptions);
  ASSERT_EQ(ta.interrupts, tb.interrupts)
      << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(ta.hook_events, tb.hook_events);
  ASSERT_EQ(a.cpu.mmu().tlb_hits(), b.cpu.mmu().tlb_hits())
      << tier << " trial " << trial << " slice " << slice;
  ASSERT_EQ(a.cpu.mmu().tlb_misses(), b.cpu.mmu().tlb_misses());
}

/// Environment override for the nightly extended fuzz (VDBG_FUZZ_TRIALS /
/// VDBG_FUZZ_SEED); the checked-in defaults keep the tier-1 run fast and
/// fully deterministic.
u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

TEST(CpuDifferential, TwoTierLockstepFuzz) {
  const int trials = static_cast<int>(env_u64("VDBG_FUZZ_TRIALS", 30));
  Rng rng(env_u64("VDBG_FUZZ_SEED", 20260806));
  u64 total_hits = 0, total_builds = 0, total_invals = 0;
  for (int trial = 0; trial < trials; ++trial) {
    // One program image, loaded into two rigs: tier 0 (slow interpreter)
    // and tier 1 (block cache).
    Assembler a(0x1000);
    a.movi(cpu::kR0, l("idt"));
    a.lidt(cpu::kR0, 64);
    a.movi(cpu::kSp, u32{0x9000});
    a.movi(cpu::kR6, u32{kScratch});
    a.movi(cpu::kR5, l("L0"));
    a.sti();
    const unsigned len = static_cast<unsigned>(rng.between(24, 160));
    emit_fuzz_program(a, rng, len);
    emit_fuzz_idt(a);
    auto prog = a.finalize();

    DiffRig interp, block;
    interp.cpu.set_block_cache_enabled(false);
    for (DiffRig* r : {&interp, &block}) {
      prog.load(r->mem);
      r->cpu.state().pc = 0x1000;
    }

    for (int slice = 0; slice < 60; ++slice) {
      // Deterministic external interrupt injection between slices.
      if (slice % 5 == 2) {
        for (DiffRig* r : {&interp, &block}) {
          r->intr.assert_vector(kExtVector);
        }
      }
      const auto ra = interp.cpu.run(997);
      const auto rb = block.cpu.run(997);
      ASSERT_EQ(ra, rb) << "trial " << trial << " slice " << slice;
      expect_rigs_identical(interp, block, trial, slice, "block-cache");
      if (::testing::Test::HasFatalFailure()) return;

      // Periodic full-memory compare (self-modifying stores and stack
      // traffic must land identically).
      if (slice % 7 == 0) {
        const auto ma = dump_mem(interp.mem);
        const auto mb = dump_mem(block.mem);
        ASSERT_EQ(ma, mb) << "trial " << trial << " slice " << slice;
      }
      if (interp.cpu.shutdown()) break;  // triple fault: both dead (checked)
    }
    ASSERT_EQ(dump_mem(interp.mem), dump_mem(block.mem)) << "trial " << trial;
    total_hits += block.cpu.stats().block_hits;
    total_builds += block.cpu.stats().block_builds;
    total_invals += block.cpu.stats().block_invalidations;
    EXPECT_EQ(0u, interp.cpu.stats().block_hits);
    EXPECT_EQ(0u, interp.cpu.stats().block_builds);
  }
  // The fuzz must actually have exercised the fast path and its
  // invalidation mechanism, or the whole comparison is vacuous. The rare
  // events (self-modifying stores) need a full-size run
  // to be guaranteed; a shrunk VDBG_FUZZ_TRIALS repro run skips the
  // coverage audit.
  if (trials < 30) return;
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(total_builds, 0u);
  EXPECT_GT(total_invals, 0u) << "no self-modifying store invalidated a "
                                 "cached block across all trials";
}

TEST(CpuDifferential, SelfModifyingCodePatchesTakeEffectBothPaths) {
  // Pass 1 executes a placeholder NOP that is part of a hot cached block,
  // then patches it to `movi r2, 7` in place; pass 2 must execute the
  // patched instruction. The cached CPU must detect the stale block (page
  // version bump) and rebuild; both CPUs end bit-identical.
  Instr patch;
  patch.op = Opcode::kMovI;
  patch.rd = 2;
  patch.rs1 = 0;
  patch.rs2 = 0;
  patch.imm = 7;
  const auto enc = patch.encode();
  const u32 lo = u32(enc[0]) | (u32(enc[1]) << 8) | (u32(enc[2]) << 16) |
                 (u32(enc[3]) << 24);
  const u32 hi = u32(enc[4]) | (u32(enc[5]) << 8) | (u32(enc[6]) << 16) |
                 (u32(enc[7]) << 24);

  auto build = [&](CpuHarness& h) {
    h.load([&](Assembler& a) {
      a.movi(cpu::kR5, u32{0});          // pass counter
      a.movi(cpu::kR3, l("placeholder"));
      a.movi(cpu::kR1, u32{lo});
      a.movi(cpu::kR4, u32{hi});
      a.jmp(l("loop"));  // block boundary: the loop head starts its own block
      a.label("loop");
      a.label("placeholder");
      a.nop();                           // becomes `movi r2, 7` after pass 1
      a.cmpi(cpu::kR5, u32{1});
      a.jz(l("done"));
      a.st32(cpu::kR3, 0, cpu::kR1);     // patch the placeholder word
      a.st32(cpu::kR3, 4, cpu::kR4);
      a.addi(cpu::kR5, cpu::kR5, u32{1});
      a.jmp(l("loop"));
      a.label("done");
      a.hlt();
    });
  };

  CpuHarness cached, uncached;
  build(cached);
  build(uncached);
  uncached.cpu.set_block_cache_enabled(false);
  ASSERT_EQ(cached.cpu.run(10000), cpu::RunExit::kHalted);
  ASSERT_EQ(uncached.cpu.run(10000), cpu::RunExit::kHalted);

  EXPECT_EQ(7u, cached.cpu.state().regs[2]) << "patched instr did not run";
  EXPECT_EQ(cached.cpu.state().regs, uncached.cpu.state().regs);
  EXPECT_EQ(cached.cpu.state().pc, uncached.cpu.state().pc);
  EXPECT_EQ(cached.cpu.cycles(), uncached.cpu.cycles());
  EXPECT_EQ(cached.cpu.stats().instructions,
            uncached.cpu.stats().instructions);
  EXPECT_GE(cached.cpu.stats().block_invalidations, 1u)
      << "stale block was not detected";
}

TEST(CpuDifferential, BreakpointPatchViaWriteVirtInvalidates) {
  // Debugger-style breakpoint patching: run a hot loop until its block is
  // cached, then rewrite the opcode of one loop instruction to kBrk through
  // Cpu::write_virt (the debug stub's code path for inserting breakpoints).
  // Both CPUs must take #BP at the same pc with identical state, and the
  // cached CPU must invalidate the stale block rather than execute it.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, l("idt"));
      a.lidt(cpu::kR0, 64);
      a.movi(cpu::kSp, u32{0x9000});
      a.movi(cpu::kR0, u32{0});
      a.label("loop");
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.cmpi(cpu::kR0, u32{0x7fffffff});
      a.jnz(l("loop"));
      a.hlt();
      emit_test_idt(a);
    });
  };
  // The addi sits 4 instructions past the image base.
  const u32 patch_va = 0x1000 + 4 * cpu::kInstrBytes;

  CpuHarness cached, uncached;
  build(cached);
  build(uncached);
  uncached.cpu.set_block_cache_enabled(false);

  // Let the loop get hot (the cached rig builds and reuses its block).
  ASSERT_EQ(cached.cpu.run(5000), cpu::RunExit::kBudget);
  ASSERT_EQ(uncached.cpu.run(5000), cpu::RunExit::kBudget);
  ASSERT_EQ(cached.cpu.cycles(), uncached.cpu.cycles());
  ASSERT_EQ(cached.cpu.state().regs, uncached.cpu.state().regs);
  ASSERT_GT(cached.cpu.stats().block_hits, 0u);

  // Patch the loop body's opcode to BRK on both rigs.
  const u8 brk_op = static_cast<u8>(Opcode::kBrk);
  ASSERT_TRUE(cached.cpu.write_virt(patch_va, {&brk_op, 1}));
  ASSERT_TRUE(uncached.cpu.write_virt(patch_va, {&brk_op, 1}));

  // Both must now take #BP: the test IDT records the event and halts.
  ASSERT_EQ(cached.cpu.run(5000), cpu::RunExit::kHalted);
  ASSERT_EQ(uncached.cpu.run(5000), cpu::RunExit::kHalted);

  const auto ra = read_trap_record(cached.mem);
  const auto rb = read_trap_record(uncached.mem);
  EXPECT_EQ(3u, ra.vector);  // #BP
  EXPECT_EQ(patch_va, ra.pc);
  EXPECT_EQ(ra.vector, rb.vector);
  EXPECT_EQ(ra.pc, rb.pc);
  EXPECT_EQ(ra.psw, rb.psw);
  EXPECT_EQ(ra.sp, rb.sp);
  EXPECT_EQ(cached.cpu.cycles(), uncached.cpu.cycles());
  EXPECT_EQ(cached.cpu.state().regs, uncached.cpu.state().regs);
  EXPECT_GE(cached.cpu.stats().block_invalidations, 1u);

  // The explicit full invalidation (snapshot restore's) drops blocks too.
  const u64 before = cached.cpu.stats().block_invalidations;
  cached.cpu.invalidate_block_cache();
  EXPECT_GT(cached.cpu.stats().block_invalidations, before);
}

TEST(CpuDifferential, HotLoopSmcGuestStoreRebuildsBlock) {
  // A hot loop, chained to itself through its pure-branch tail, whose body
  // is patched by a guest store after a hundred cached iterations: the
  // placeholder NOP becomes `movi r2, 7` for the second hundred. The block
  // cache must detect the page version bump, rebuild the loop block, and
  // end bit-identical to the slow interpreter.
  Instr patch;
  patch.op = Opcode::kMovI;
  patch.rd = 2;
  patch.rs1 = 0;
  patch.rs2 = 0;
  patch.imm = 7;
  const auto enc = patch.encode();
  const u32 lo = u32(enc[0]) | (u32(enc[1]) << 8) | (u32(enc[2]) << 16) |
                 (u32(enc[3]) << 24);
  const u32 hi = u32(enc[4]) | (u32(enc[5]) << 8) | (u32(enc[6]) << 16) |
                 (u32(enc[7]) << 24);

  auto build = [&](CpuHarness& h) {
    h.load([&](Assembler& a) {
      a.movi(cpu::kR3, l("placeholder"));
      a.movi(cpu::kR1, u32{lo});
      a.movi(cpu::kR4, u32{hi});
      a.movi(cpu::kR0, u32{0});
      a.movi(cpu::kR5, u32{0});          // pass counter
      a.jmp(l("loop"));
      a.label("loop");
      a.label("placeholder");
      a.nop();                           // becomes `movi r2, 7` in pass 2
      a.addi(cpu::kR0, cpu::kR0, u32{1});
      a.cmpi(cpu::kR0, u32{100});
      a.jnz(l("loop"));                  // 100 hot iterations per pass
      a.cmpi(cpu::kR5, u32{1});
      a.jz(l("done"));
      a.st32(cpu::kR3, 0, cpu::kR1);     // guest store patches the loop body
      a.st32(cpu::kR3, 4, cpu::kR4);
      a.movi(cpu::kR0, u32{0});
      a.addi(cpu::kR5, cpu::kR5, u32{1});
      a.jmp(l("loop"));
      a.label("done");
      a.hlt();
    });
  };

  CpuHarness cached, interp;
  build(cached);
  build(interp);
  interp.cpu.set_block_cache_enabled(false);
  ASSERT_EQ(cached.cpu.run(20000), cpu::RunExit::kHalted);
  ASSERT_EQ(interp.cpu.run(20000), cpu::RunExit::kHalted);

  EXPECT_EQ(7u, cached.cpu.state().regs[2]) << "patched instr did not run";
  EXPECT_EQ(cached.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(cached.cpu.state().pc, interp.cpu.state().pc);
  EXPECT_EQ(cached.cpu.state().psw, interp.cpu.state().psw);
  EXPECT_EQ(cached.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(cached.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(cached.cpu.stats().mem_accesses, interp.cpu.stats().mem_accesses);
  EXPECT_EQ(cached.cpu.mmu().tlb_hits(), interp.cpu.mmu().tlb_hits());

  // Both passes run the loop from the cache; the store in between must
  // drop the stale loop block rather than let the chain keep running it.
  EXPECT_GE(cached.cpu.stats().block_hits, 190u) << "hot loop ran uncached";
  EXPECT_GE(cached.cpu.stats().block_invalidations, 1u)
      << "stale loop block was not dropped";
}

TEST(CpuDifferential, PageBoundaryBlockMatchesReference) {
  // A loop whose body straddles a page boundary: the decoder cuts the first
  // block at the 4 KiB edge (a non-terminator tail) and a second block
  // continues on the next page, each guarded by its own page's version.
  // The loop must run from the cache, block to block across the edge, and
  // stay bit-identical to the slow interpreter.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kR0, u32{0});
      a.jmp(l("head"));
      // Pad so "head" sits two instructions before the 0x2000 page edge.
      while (a.here() < 0x2000 - 2 * cpu::kInstrBytes) a.nop();
      a.label("head");
      a.addi(cpu::kR0, cpu::kR0, u32{1});   // 0x1ff0
      a.xori(cpu::kR1, cpu::kR0, u32{0x55});  // 0x1ff8: last instr on page 1
      a.cmpi(cpu::kR0, u32{3000});          // 0x2000: first instr on page 2
      a.jnz(l("head"));
      a.hlt();
    });
  };

  CpuHarness cached, interp;
  build(cached);
  build(interp);
  interp.cpu.set_block_cache_enabled(false);
  ASSERT_EQ(cached.cpu.run(100000), cpu::RunExit::kHalted);
  ASSERT_EQ(interp.cpu.run(100000), cpu::RunExit::kHalted);

  EXPECT_EQ(3000u, cached.cpu.state().regs[0]);
  EXPECT_EQ(cached.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(cached.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(cached.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(cached.cpu.mmu().tlb_hits(), interp.cpu.mmu().tlb_hits());

  // Every iteration after the first dispatches both halves from the cache.
  EXPECT_GE(cached.cpu.stats().block_hits, 2u * 2999)
      << "the boundary-cut halves were not reused from the cache";
  EXPECT_LE(cached.cpu.stats().block_builds, 4u);
}

TEST(CpuDifferential, SelfCallPushingIntoItsCodePageMatchesReference) {
  // A single-`call` block that calls itself. Its tail is a pure branch, so
  // the dispatcher chains it to itself without returning to run(), but the
  // call WRITES MEMORY — each iteration pushes the return address and sp
  // walks down, through a neutral page and eventually into the code page
  // itself, finally overwriting the call's own immediate. Every chained
  // re-entry must re-check the page version, or the cache keeps executing
  // the stale block after the pushes start landing on the code page and
  // diverges from the interpreter.
  auto build = [](CpuHarness& h) {
    h.load([](Assembler& a) {
      a.movi(cpu::kSp, u32{0x3000});
      a.label("self");
      a.call(l("self"));
    });
  };

  CpuHarness cached, interp;
  build(cached);
  build(interp);
  interp.cpu.set_block_cache_enabled(false);

  // One uninterrupted run: the whole descent — self-chain, pushes crossing
  // into the code page, the immediate overwritten — happens without a
  // single return to run(), so only the dispatcher's per-entry version
  // check stands between a stale block and divergence.
  const auto ra = cached.cpu.run(60000);
  const auto rb = interp.cpu.run(60000);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(cached.cpu.state().pc, interp.cpu.state().pc);
  EXPECT_EQ(cached.cpu.state().regs, interp.cpu.state().regs);
  EXPECT_EQ(cached.cpu.cycles(), interp.cpu.cycles());
  EXPECT_EQ(cached.cpu.stats().instructions, interp.cpu.stats().instructions);
  EXPECT_EQ(cached.cpu.stats().mem_accesses, interp.cpu.stats().mem_accesses);
  EXPECT_EQ(cached.cpu.mmu().tlb_hits(), interp.cpu.mmu().tlb_hits());
  EXPECT_EQ(cached.cpu.shutdown(), interp.cpu.shutdown());
  EXPECT_EQ(dump_mem(cached.mem), dump_mem(interp.mem));

  EXPECT_GT(cached.cpu.stats().block_hits, 0u)
      << "the self-call never ran from the cache";
  EXPECT_GT(cached.cpu.stats().block_invalidations, 0u)
      << "pushes reaching the code page never dropped the cached block";
}

}  // namespace
}  // namespace vdbg::test
