#include "cpu/cpu.h"

#include <algorithm>

namespace vdbg::cpu {

Cpu::Cpu(PhysMem& mem, IoBus& io, IntrLine* intr, const CostModel& costs)
    : mem_(mem), io_(io), intr_(intr), costs_(costs), mmu_(mem, costs) {}

void Cpu::io_allow_range(u16 first, u16 count, bool allow) {
  // Word-parallel update: head/tail partial words get a sub-range mask, the
  // middle is whole-word fills. O(count/64) instead of O(count).
  const u32 end = std::min<u32>(u32(first) + count, 65536);
  u32 p = first;
  while (p < end) {
    const u32 word = p >> 6;
    const u32 lo = p & 63;
    const u32 hi = std::min<u32>(end - (word << 6), 64);
    const u64 upper = hi == 64 ? ~u64{0} : (u64{1} << hi) - 1;
    const u64 mask = upper & ~((u64{1} << lo) - 1);
    if (allow) {
      io_bitmap_[word] |= mask;
    } else {
      io_bitmap_[word] &= ~mask;
    }
    p = (word << 6) + hi;
  }
}

RunExit Cpu::run(Cycles budget) {
  const Cycles target = cycles_ + budget;
  run_limit_ = ~Cycles{0};
  while (cycles_ < target && cycles_ < run_limit_) {
    if (shutdown_) return RunExit::kShutdown;
    if (stop_requested_) {
      stop_requested_ = false;
      return RunExit::kStopRequested;
    }
    // Checked before the interrupt poll: a run stopped at instruction N must
    // leave the pending-interrupt state untouched so a later resume (or a
    // replay stopped at the same N) proceeds identically.
    if (stats_.instructions >= instr_stop_) return RunExit::kInstrLimit;
    if (intr_ && intr_->intr_asserted()) {
      if (hook_) {
        const u8 vector = intr_->acknowledge();
        cycles_ += costs_.intr_ack;
        halted_ = false;
        ++stats_.interrupts;
        ++stats_.hook_events;
        hook_->on_external_interrupt(*this, vector);
        continue;
      }
      if (st_.intr_enabled()) {
        const u8 vector = intr_->acknowledge();
        cycles_ += costs_.intr_ack;
        halted_ = false;
        ++stats_.interrupts;
        deliver_event(Fault{vector, 0, 0, EventKind::kExternal}, st_.pc);
        continue;
      }
      if (halted_) return RunExit::kHalted;  // pending but masked: sleep on
    }
    if (halted_) return RunExit::kHalted;
    if (block_cache_enabled_) {
      run_cached(target);
    } else {
      step();
    }
  }
  return RunExit::kBudget;
}

RunExit Cpu::step_one() {
  if (shutdown_) return RunExit::kShutdown;
  if (intr_ && intr_->intr_asserted()) {
    if (hook_) {
      const u8 vector = intr_->acknowledge();
      cycles_ += costs_.intr_ack;
      halted_ = false;
      ++stats_.interrupts;
      ++stats_.hook_events;
      hook_->on_external_interrupt(*this, vector);
      return RunExit::kBudget;
    }
    if (st_.intr_enabled()) {
      const u8 vector = intr_->acknowledge();
      cycles_ += costs_.intr_ack;
      halted_ = false;
      ++stats_.interrupts;
      deliver_event(Fault{vector, 0, 0, EventKind::kExternal}, st_.pc);
      return RunExit::kBudget;
    }
  }
  if (halted_) return RunExit::kHalted;
  step();
  if (shutdown_) return RunExit::kShutdown;
  if (stop_requested_) {
    stop_requested_ = false;
    return RunExit::kStopRequested;
  }
  return halted_ ? RunExit::kHalted : RunExit::kBudget;
}

void Cpu::step() {
  const u32 pc0 = st_.pc;
  const bool tf_pending = st_.trap_flag();

  if (pc0 & 0x7) {
    raise(Fault::gp(1), pc0);
    return;
  }
  auto tr = mmu_.translate(st_, pc0, Access::kExec, st_.cpl(), kInstrBytes);
  cycles_ += tr.cost;
  if (!tr.ok) {
    raise(tr.fault, pc0);
    return;
  }
  step_at(tr.pa, pc0, tf_pending);
}

void Cpu::step_at(PAddr pa, u32 pc0, bool tf_pending) {
  u8 bytes[kInstrBytes];
  mem_.read_block(pa, bytes);
  cycles_ += costs_.mem;
  ++stats_.mem_accesses;

  if (!opcode_valid(bytes[0])) {
    raise(Fault::ud(), pc0);
    return;
  }
  const Instr in = Instr::decode(bytes);
  cycles_ += costs_.base;

  const ExecResult er = execute(in);
  ++stats_.instructions;
  if (er.faulted) {
    // st_.pc is still pc0: execute() commits pc only on success. Software
    // INT resumes after the instruction; every fault restarts it.
    const u32 resume =
        er.fault.kind == EventKind::kSoftInt ? pc0 + kInstrBytes : pc0;
    raise(er.fault, resume);
    return;
  }
  if (tf_pending && !halted_) {
    // Single-step trap: reported after the instruction completes, with the
    // resume point at the next instruction.
    raise(Fault::db(), st_.pc);
  }
}

void Cpu::run_cached(Cycles target) {
  // Single-stepping decodes fresh: a #DB boundary after every instruction
  // makes block dispatch pointless, and the slow path is the reference.
  if (st_.trap_flag()) {
    step();
    return;
  }
  // The stop limit is loop-invariant across chained blocks: only device/
  // hook activity moves run_limit_, and every op with such side effects
  // forces dispatch back to run() (not a pure branch).
  const Cycles stop = target < run_limit_ ? target : run_limit_;
  for (;;) {
    const u32 pc0 = st_.pc;
    if (pc0 & 0x7) {
      raise(Fault::gp(1), pc0);
      return;
    }
    // Block-entry fetch translation, with the unpaged and TLB-hit cases
    // inlined. Accounting matches Mmu::translate exactly: unpaged charges
    // nothing and touches no counters, a TLB hit charges nothing and bumps
    // hits_ (fetch_recheck does both), everything else — miss, permission
    // fault, bad physical range — falls back to the real translate.
    PAddr pa = 0;
    if (!st_.paging_enabled()) {
      if (!mem_.contains(pc0, kInstrBytes)) {
        raise(Fault::gp(/*err=*/2), pc0);
        return;
      }
      pa = pc0;
    } else if (!mmu_.fetch_recheck(pc0, st_.cpl(), pa)) {
      auto tr = mmu_.translate(st_, pc0, Access::kExec, st_.cpl(), kInstrBytes);
      cycles_ += tr.cost;
      if (!tr.ok) {
        raise(tr.fault, pc0);
        return;
      }
      pa = tr.pa;
    }
    const u64 version = mem_.page_version(pa >> kPageBits);
    CachedBlock* blk = bcache_.lookup(pa, version, stats_.block_hits);
    if (!blk) {
      blk = bcache_.build(pa, mem_, stats_.block_builds,
                          stats_.block_invalidations);
      if (!blk) {
        // Undecodable head (invalid opcode / truncated fetch): the slow
        // tail raises the architecturally correct fault.
        step_at(pa, pc0, /*tf_pending=*/false);
        return;
      }
    }
    // Chain into the next block only when the tail op provably left every
    // run()-loop condition unchanged (see is_pure_branch) and budget
    // remains; otherwise return so run() re-checks interrupts/halt/stop.
    if (!exec_block(*blk, pa, stop)) return;
    if (cycles_ >= stop) return;
    if (stats_.instructions >= instr_stop_) return;
  }
}

// flatten: inline the whole execute()/mem-helper call tree into the block
// dispatch loop — this is the interpreter's hottest code by far.
__attribute__((flatten)) bool Cpu::exec_block(const CachedBlock& blk,
                                              PAddr pa0, Cycles stop) {
  // Charge and execute each cached instruction exactly as the slow path
  // would. The per-instruction translate of the slow path is replaced by
  // the block-entry translate (already charged by the caller) plus a TLB
  // recheck between instructions that performs identical accounting for
  // the hit case and falls back to the full translate otherwise. Interrupt,
  // stop, halt and trap-flag state cannot change between two mid-block
  // instructions (see is_block_terminator); budget and run-limit, which
  // can, are checked at every boundary.
  const u8 cpl = st_.cpl();
  const bool paged = st_.paging_enabled();
  // Mid-block instructions cannot call out to devices or hooks, so the
  // code page's version word never relocates and can be polled directly.
  const u64* const version_now = mem_.page_version_ptr(pa0 >> kPageBits);
  const Cycles fetch_cost = costs_.mem + costs_.base;
  u32 pc = st_.pc;
  PAddr pa = pa0;
  // Flag helper identical to CpuState::set_flags (bit-for-bit psw result).
  const auto set_zncv = [this](bool z, bool n, bool c, bool v) {
    st_.psw = (st_.psw & ~Psw::kFlagsMask) | (z ? Psw::kZ : 0u) |
              (n ? Psw::kN : 0u) | (c ? Psw::kC : 0u) | (v ? Psw::kV : 0u);
  };
  for (u16 i = 0;;) {
    cycles_ += fetch_cost;
    ++stats_.mem_accesses;
    const Instr& in = blk.instrs[i];
    // Specialized handlers for the frequent simple ops: same architectural
    // semantics as Cpu::execute (flag algebra from set_flags_addsub /
    // set_flags_logic, shift masking, branch-taken charge), minus the
    // generality — none of these can fault, perform memory/device access,
    // or need the privilege check. Everything else (loads/stores, stack
    // ops, mul/div, system ops) drops to the generic execute() below.
    // tests/test_cpu_diff.cpp fuzzes both paths for bit-identical results.
    bool handled = true;
    {
      const u32 a = st_.regs[in.rs1 & (kNumGprs - 1)];
      const u32 b = st_.regs[in.rs2 & (kNumGprs - 1)];
      u32& rd = st_.regs[in.rd & (kNumGprs - 1)];
      u32 next_pc = pc + kInstrBytes;
      switch (in.op) {
        case Opcode::kNop:
          break;
        case Opcode::kMovI:
          rd = in.imm;
          break;
        case Opcode::kMov:
          rd = a;
          break;
        case Opcode::kAdd: {
          const u32 r = a + b;
          set_zncv(r == 0, r >> 31, r < a, (~(a ^ b) & (a ^ r)) >> 31);
          rd = r;
          break;
        }
        case Opcode::kSub: {
          const u32 r = a - b;
          set_zncv(r == 0, r >> 31, a < b, ((a ^ b) & (a ^ r)) >> 31);
          rd = r;
          break;
        }
        case Opcode::kAddI: {
          const u32 r = a + in.imm;
          set_zncv(r == 0, r >> 31, r < a, (~(a ^ in.imm) & (a ^ r)) >> 31);
          rd = r;
          break;
        }
        case Opcode::kSubI: {
          const u32 r = a - in.imm;
          set_zncv(r == 0, r >> 31, a < in.imm,
                   ((a ^ in.imm) & (a ^ r)) >> 31);
          rd = r;
          break;
        }
        case Opcode::kAnd: rd = a & b; set_zncv(rd == 0, rd >> 31, 0, 0); break;
        case Opcode::kOr: rd = a | b; set_zncv(rd == 0, rd >> 31, 0, 0); break;
        case Opcode::kXor: rd = a ^ b; set_zncv(rd == 0, rd >> 31, 0, 0); break;
        case Opcode::kShl:
          rd = a << (b & 31);
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kShr:
          rd = a >> (b & 31);
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kSar:
          rd = static_cast<u32>(static_cast<i32>(a) >> (b & 31));
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kAndI:
          rd = a & in.imm;
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kOrI:
          rd = a | in.imm;
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kXorI:
          rd = a ^ in.imm;
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kShlI:
          rd = a << (in.imm & 31);
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kShrI:
          rd = a >> (in.imm & 31);
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kSarI:
          rd = static_cast<u32>(static_cast<i32>(a) >> (in.imm & 31));
          set_zncv(rd == 0, rd >> 31, 0, 0);
          break;
        case Opcode::kCmp: {
          const u32 r = a - b;
          set_zncv(r == 0, r >> 31, a < b, ((a ^ b) & (a ^ r)) >> 31);
          break;
        }
        case Opcode::kCmpI: {
          const u32 r = a - in.imm;
          set_zncv(r == 0, r >> 31, a < in.imm,
                   ((a ^ in.imm) & (a ^ r)) >> 31);
          break;
        }
        case Opcode::kJmp:
          next_pc = in.imm;
          cycles_ += costs_.branch_taken;
          break;
        case Opcode::kJmpR:
          next_pc = a;
          cycles_ += costs_.branch_taken;
          break;
        case Opcode::kJz:
        case Opcode::kJnz:
        case Opcode::kJb:
        case Opcode::kJae:
        case Opcode::kJbe:
        case Opcode::kJa:
        case Opcode::kJl:
        case Opcode::kJge:
        case Opcode::kJle:
        case Opcode::kJg: {
          const u32 psw = st_.psw;
          const bool z = psw & Psw::kZ, n = psw & Psw::kN, c = psw & Psw::kC,
                     v = psw & Psw::kV;
          bool taken = false;
          switch (in.op) {
            case Opcode::kJz: taken = z; break;
            case Opcode::kJnz: taken = !z; break;
            case Opcode::kJb: taken = c; break;
            case Opcode::kJae: taken = !c; break;
            case Opcode::kJbe: taken = c || z; break;
            case Opcode::kJa: taken = !c && !z; break;
            case Opcode::kJl: taken = n != v; break;
            case Opcode::kJge: taken = n == v; break;
            case Opcode::kJle: taken = z || (n != v); break;
            case Opcode::kJg: taken = !z && (n == v); break;
            default: break;
          }
          if (taken) {
            next_pc = in.imm;
            cycles_ += costs_.branch_taken;
          }
          break;
        }
        default:
          handled = false;
          break;
      }
      if (handled) {
        st_.pc = next_pc;
        ++stats_.instructions;
      }
    }
    if (!handled) {
      const ExecResult er = execute(in);
      ++stats_.instructions;
      if (er.faulted) {
        const u32 resume =
            er.fault.kind == EventKind::kSoftInt ? pc + kInstrBytes : pc;
        raise(er.fault, resume);
        return false;
      }
    }
    if (++i >= blk.count) {
      // Block ended: at its terminator, or straight-line at the decode cap
      // or page edge (then the tail op is a non-terminator, always
      // chainable).
      const Opcode tail = blk.instrs[blk.count - 1].op;
      return !is_block_terminator(tail) || is_pure_branch(tail);
    }
    if (cycles_ >= stop) return false;
    if (stats_.instructions >= instr_stop_) return false;
    pc += kInstrBytes;
    pa += kInstrBytes;
    if (*version_now != blk.version) {
      // Self-modified mid-block: resync below. The stale block itself is
      // rebuilt (and counted) at the next lookup.
      break;
    }
    if (paged) {
      PAddr now_pa = 0;
      if (!mmu_.fetch_recheck(pc, cpl, now_pa) || now_pa != pa) break;
    }
  }
  // Revalidation failed between instructions: execute the next instruction
  // through the slow path (which performs the full translate with the same
  // charges the reference interpreter would) and let run() re-dispatch.
  step();
  return false;
}

void Cpu::raise(const Fault& f, u32 resume_pc) {
  if (f.vector == kVecPf && f.kind == EventKind::kException) {
    st_.cr[kCr2] = f.cr2;
  }
  if (hook_) {
    ++stats_.hook_events;
    hook_->on_event(*this, f);
    return;
  }
  deliver_event(f, resume_pc);
}

bool Cpu::deliver_event(const Fault& f, u32 resume_pc) {
  auto escalate = [&]() -> bool {
    if (f.vector == kVecDoubleFault) {
      shutdown_ = true;  // triple fault: machine is gone
      return false;
    }
    return deliver_event(
        Fault{kVecDoubleFault, 0, 0, EventKind::kException}, resume_pc);
  };

  // --- locate and validate the gate ---
  if (f.vector >= st_.idt_count) return escalate();
  u32 w0 = 0, w1 = 0;
  Fault mf;
  const VAddr gate_va = st_.idt_base + u32(f.vector) * Gate::kBytes;
  if (!mem_read(gate_va, 4, w0, mf, kRing0) ||
      !mem_read(gate_va + 4, 4, w1, mf, kRing0)) {
    return escalate();
  }
  const Gate g = Gate::unpack(w0, w1);
  if (!g.present) return escalate();
  if (f.kind == EventKind::kSoftInt && g.dpl < st_.cpl()) return escalate();
  if (g.target_ring > st_.cpl()) return escalate();  // no privilege lowering
  if (g.handler & (kInstrBytes - 1)) return escalate();

  // --- stack selection (TSS-equivalent) and frame push ---
  const u8 target = g.target_ring;
  u32 sp = target == st_.cpl()
               ? st_.sp()
               : (target == kRing0 ? st_.cr[kCrMonitorSp]
                                   : st_.cr[kCrKernelSp]);
  const u32 old_sp = st_.sp();
  if (!push32(old_sp, sp, target, mf) || !push32(st_.psw, sp, target, mf) ||
      !push32(resume_pc, sp, target, mf) ||
      !push32(f.errcode, sp, target, mf)) {
    return escalate();
  }

  // --- commit ---
  st_.regs[kSp] = sp;
  st_.set_cpl(target);
  st_.set_if(false);
  st_.set_tf(false);
  st_.pc = g.handler;
  halted_ = false;
  cycles_ += costs_.exception_entry;
  ++stats_.exceptions;
  return true;
}

bool Cpu::mem_read(VAddr va, unsigned size, u32& value, Fault& fault, u8 cpl) {
  if ((size == 2 && (va & 1)) || (size == 4 && (va & 3))) {
    fault = Fault::gp(3);
    return false;
  }
  auto tr = mmu_.translate(st_, va, Access::kRead, cpl, size);
  cycles_ += tr.cost + costs_.mem;
  ++stats_.mem_accesses;
  if (!tr.ok) {
    fault = tr.fault;
    return false;
  }
  switch (size) {
    case 1: value = mem_.read8(tr.pa); break;
    case 2: value = mem_.read16(tr.pa); break;
    default: value = mem_.read32(tr.pa); break;
  }
  return true;
}

bool Cpu::mem_write(VAddr va, unsigned size, u32 value, Fault& fault, u8 cpl) {
  if ((size == 2 && (va & 1)) || (size == 4 && (va & 3))) {
    fault = Fault::gp(3);
    return false;
  }
  auto tr = mmu_.translate(st_, va, Access::kWrite, cpl, size);
  cycles_ += tr.cost + costs_.mem;
  ++stats_.mem_accesses;
  if (!tr.ok) {
    fault = tr.fault;
    return false;
  }
  switch (size) {
    case 1: mem_.write8(tr.pa, static_cast<u8>(value)); break;
    case 2: mem_.write16(tr.pa, static_cast<u16>(value)); break;
    default: mem_.write32(tr.pa, value); break;
  }
  return true;
}

bool Cpu::push32(u32 value, u32& sp, u8 cpl, Fault& fault) {
  const u32 new_sp = sp - 4;
  if (!mem_write(new_sp, 4, value, fault, cpl)) return false;
  sp = new_sp;
  return true;
}

void Cpu::set_flags_addsub(u32 a, u32 b, u32 r, bool is_sub) {
  const bool z = r == 0;
  const bool n = r >> 31;
  bool c, v;
  if (is_sub) {
    c = a < b;  // borrow
    v = ((a ^ b) & (a ^ r)) >> 31;
  } else {
    c = r < a;  // carry out
    v = (~(a ^ b) & (a ^ r)) >> 31;
  }
  st_.set_flags(z, n, c, v);
}

void Cpu::set_flags_logic(u32 r) {
  st_.set_flags(r == 0, r >> 31, false, false);
}

Cpu::ExecResult Cpu::execute(const Instr& in) {
  ExecResult res;
  auto fail = [&](Fault f) {
    res.faulted = true;
    res.fault = f;
    return res;
  };

  const u8 cpl = st_.cpl();
  auto reg = [&](u8 r) -> u32& { return st_.regs[r & (kNumGprs - 1)]; };
  const u32 a = reg(in.rs1);
  const u32 b = reg(in.rs2);
  u32 next_pc = st_.pc + kInstrBytes;
  Fault mf;

  if (is_privileged(in.op) && cpl != 0) {
    return fail(Fault::gp(0));
  }

  switch (in.op) {
    case Opcode::kNop:
      break;
    case Opcode::kMovI:
      reg(in.rd) = in.imm;
      break;
    case Opcode::kMov:
      reg(in.rd) = a;
      break;

    case Opcode::kAdd: {
      const u32 r = a + b;
      set_flags_addsub(a, b, r, false);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kSub: {
      const u32 r = a - b;
      set_flags_addsub(a, b, r, true);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kAnd: reg(in.rd) = a & b; set_flags_logic(reg(in.rd)); break;
    case Opcode::kOr: reg(in.rd) = a | b; set_flags_logic(reg(in.rd)); break;
    case Opcode::kXor: reg(in.rd) = a ^ b; set_flags_logic(reg(in.rd)); break;
    case Opcode::kShl: reg(in.rd) = a << (b & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kShr: reg(in.rd) = a >> (b & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kSar:
      reg(in.rd) = static_cast<u32>(static_cast<i32>(a) >> (b & 31));
      set_flags_logic(reg(in.rd));
      break;
    case Opcode::kMul:
      reg(in.rd) = a * b;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.mul;
      break;
    case Opcode::kDivU:
      if (b == 0) return fail(Fault::de());
      reg(in.rd) = a / b;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.div;
      break;
    case Opcode::kRemU:
      if (b == 0) return fail(Fault::de());
      reg(in.rd) = a % b;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.div;
      break;

    case Opcode::kAddI: {
      const u32 r = a + in.imm;
      set_flags_addsub(a, in.imm, r, false);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kSubI: {
      const u32 r = a - in.imm;
      set_flags_addsub(a, in.imm, r, true);
      reg(in.rd) = r;
      break;
    }
    case Opcode::kAndI: reg(in.rd) = a & in.imm; set_flags_logic(reg(in.rd)); break;
    case Opcode::kOrI: reg(in.rd) = a | in.imm; set_flags_logic(reg(in.rd)); break;
    case Opcode::kXorI: reg(in.rd) = a ^ in.imm; set_flags_logic(reg(in.rd)); break;
    case Opcode::kShlI: reg(in.rd) = a << (in.imm & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kShrI: reg(in.rd) = a >> (in.imm & 31); set_flags_logic(reg(in.rd)); break;
    case Opcode::kSarI:
      reg(in.rd) = static_cast<u32>(static_cast<i32>(a) >> (in.imm & 31));
      set_flags_logic(reg(in.rd));
      break;
    case Opcode::kMulI:
      reg(in.rd) = a * in.imm;
      set_flags_logic(reg(in.rd));
      cycles_ += costs_.mul;
      break;

    case Opcode::kCmp:
      set_flags_addsub(a, b, a - b, true);
      break;
    case Opcode::kCmpI:
      set_flags_addsub(a, in.imm, a - in.imm, true);
      break;

    case Opcode::kLd8:
    case Opcode::kLd16:
    case Opcode::kLd32: {
      const unsigned size = in.op == Opcode::kLd8    ? 1
                            : in.op == Opcode::kLd16 ? 2
                                                     : 4;
      u32 v = 0;
      if (!mem_read(a + in.imm, size, v, mf, cpl)) return fail(mf);
      reg(in.rd) = v;
      break;
    }
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32: {
      const unsigned size = in.op == Opcode::kSt8    ? 1
                            : in.op == Opcode::kSt16 ? 2
                                                     : 4;
      if (!mem_write(a + in.imm, size, b, mf, cpl)) return fail(mf);
      break;
    }

    case Opcode::kJmp:
      next_pc = in.imm;
      cycles_ += costs_.branch_taken;
      break;
    case Opcode::kJmpR:
      next_pc = a;
      cycles_ += costs_.branch_taken;
      break;

    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJb:
    case Opcode::kJae:
    case Opcode::kJbe:
    case Opcode::kJa:
    case Opcode::kJl:
    case Opcode::kJge:
    case Opcode::kJle:
    case Opcode::kJg: {
      const bool z = st_.flag_z(), n = st_.flag_n(), c = st_.flag_c(),
                 v = st_.flag_v();
      bool taken = false;
      switch (in.op) {
        case Opcode::kJz: taken = z; break;
        case Opcode::kJnz: taken = !z; break;
        case Opcode::kJb: taken = c; break;
        case Opcode::kJae: taken = !c; break;
        case Opcode::kJbe: taken = c || z; break;
        case Opcode::kJa: taken = !c && !z; break;
        case Opcode::kJl: taken = n != v; break;
        case Opcode::kJge: taken = n == v; break;
        case Opcode::kJle: taken = z || (n != v); break;
        case Opcode::kJg: taken = !z && (n == v); break;
        default: break;
      }
      if (taken) {
        next_pc = in.imm;
        cycles_ += costs_.branch_taken;
      }
      break;
    }

    case Opcode::kCall: {
      u32 sp = st_.sp();
      if (!push32(st_.pc + kInstrBytes, sp, cpl, mf)) return fail(mf);
      st_.regs[kSp] = sp;
      next_pc = in.imm;
      cycles_ += costs_.branch_taken;
      break;
    }
    case Opcode::kCallR: {
      u32 sp = st_.sp();
      if (!push32(st_.pc + kInstrBytes, sp, cpl, mf)) return fail(mf);
      st_.regs[kSp] = sp;
      next_pc = a;
      cycles_ += costs_.branch_taken;
      break;
    }
    case Opcode::kRet: {
      u32 target = 0;
      if (!mem_read(st_.sp(), 4, target, mf, cpl)) return fail(mf);
      st_.regs[kSp] += 4;
      next_pc = target;
      cycles_ += costs_.branch_taken;
      break;
    }
    case Opcode::kPush: {
      u32 sp = st_.sp();
      if (!push32(a, sp, cpl, mf)) return fail(mf);
      st_.regs[kSp] = sp;
      break;
    }
    case Opcode::kPop: {
      u32 v = 0;
      if (!mem_read(st_.sp(), 4, v, mf, cpl)) return fail(mf);
      st_.regs[kSp] += 4;
      reg(in.rd) = v;
      break;
    }

    case Opcode::kInt:
      return fail(Fault::soft(static_cast<u8>(in.imm & 0xff)));

    case Opcode::kIret: {
      const u32 sp = st_.sp();
      u32 err = 0, rpc = 0, rpsw = 0, rsp = 0;
      if (!mem_read(sp, 4, err, mf, cpl) ||
          !mem_read(sp + 4, 4, rpc, mf, cpl) ||
          !mem_read(sp + 8, 4, rpsw, mf, cpl) ||
          !mem_read(sp + 12, 4, rsp, mf, cpl)) {
        return fail(mf);
      }
      const u32 new_cpl = rpsw & Psw::kCplMask;
      if (new_cpl == 2) return fail(Fault::gp(4));
      if (rpc & (kInstrBytes - 1)) return fail(Fault::gp(1));
      st_.psw = rpsw & (Psw::kCplMask | Psw::kIf | Psw::kTf | Psw::kFlagsMask);
      st_.regs[kSp] = rsp;
      next_pc = rpc;
      cycles_ += costs_.iret;
      break;
    }

    case Opcode::kHlt:
      halted_ = true;
      break;
    case Opcode::kCli:
      st_.set_if(false);
      break;
    case Opcode::kSti:
      st_.set_if(true);
      break;
    case Opcode::kLidt:
      st_.idt_base = a;
      st_.idt_count = in.imm;
      break;
    case Opcode::kMovToCr: {
      const u8 crn = in.rd;
      if (crn >= kNumCrs) return fail(Fault::ud());
      st_.cr[crn] = a;
      if (crn == kCr3 || crn == kCr0) mmu_.flush_tlb();
      break;
    }
    case Opcode::kMovFromCr: {
      const u8 crn = in.rs1;
      if (crn >= kNumCrs) return fail(Fault::ud());
      reg(in.rd) = st_.cr[crn];
      break;
    }
    case Opcode::kInvlpg:
      mmu_.invlpg(a);
      break;

    case Opcode::kIn: {
      const u16 port = static_cast<u16>(in.imm & 0xffff);
      if (!io_allowed(cpl, port)) return fail(Fault::gp(0x10000u | port));
      reg(in.rd) = io_.io_read(port);
      cycles_ += costs_.port_io;
      ++stats_.io_accesses;
      break;
    }
    case Opcode::kOut: {
      const u16 port = static_cast<u16>(in.imm & 0xffff);
      if (!io_allowed(cpl, port)) return fail(Fault::gp(0x10000u | port));
      io_.io_write(port, a);
      cycles_ += costs_.port_io;
      ++stats_.io_accesses;
      break;
    }

    case Opcode::kBrk:
      return fail(Fault::bp());
  }

  st_.pc = next_pc;
  return res;
}

bool Cpu::read_virt(VAddr va, std::span<u8> out, u8 cpl) {
  std::size_t done = 0;
  while (done < out.size()) {
    const VAddr cur = va + static_cast<u32>(done);
    const u32 page_rem = kPageSize - (cur & kPageMask);
    const u32 chunk = std::min<u32>(
        page_rem, static_cast<u32>(out.size() - done));
    const auto tr = mmu_.probe(st_, cur, Access::kRead, cpl, chunk);
    if (!tr.ok) return false;
    if (!mem_.contains(tr.pa, chunk)) return false;
    mem_.read_block(tr.pa, out.subspan(done, chunk));
    done += chunk;
  }
  return true;
}

void Cpu::save(SnapshotWriter& w) const {
  for (u32 r : st_.regs) w.put_u32(r);
  w.put_u32(st_.pc);
  w.put_u32(st_.psw);
  for (u32 c : st_.cr) w.put_u32(c);
  w.put_u32(st_.idt_base);
  w.put_u32(st_.idt_count);
  w.put_u64(cycles_);
  w.put_bool(halted_);
  w.put_bool(shutdown_);
  for (u64 word : io_bitmap_) w.put_u64(word);
  w.put_u64(stats_.instructions);
  w.put_u64(stats_.mem_accesses);
  w.put_u64(stats_.io_accesses);
  w.put_u64(stats_.exceptions);
  w.put_u64(stats_.interrupts);
  w.put_u64(stats_.hook_events);
  profiler_.save(w);
}

void Cpu::restore(SnapshotReader& r) {
  for (u32& reg : st_.regs) reg = r.get_u32();
  st_.pc = r.get_u32();
  st_.psw = r.get_u32();
  for (u32& c : st_.cr) c = r.get_u32();
  st_.idt_base = r.get_u32();
  st_.idt_count = r.get_u32();
  cycles_ = r.get_u64();
  halted_ = r.get_bool();
  shutdown_ = r.get_bool();
  for (u64& word : io_bitmap_) word = r.get_u64();
  stats_.instructions = r.get_u64();
  stats_.mem_accesses = r.get_u64();
  stats_.io_accesses = r.get_u64();
  stats_.exceptions = r.get_u64();
  stats_.interrupts = r.get_u64();
  stats_.hook_events = r.get_u64();
  profiler_.restore(r);
  // Host-side run controls are not guest state: clear them so the restored
  // machine runs exactly like a freshly stopped one.
  stop_requested_ = false;
  run_limit_ = ~Cycles{0};
  // The block cache is derived from (possibly rolled-back) memory contents
  // and page versions; drop it and let it rebuild. All cache states retire
  // bit-identical architectural state, so this keeps replay exact.
  invalidate_block_cache();
}

bool Cpu::write_virt(VAddr va, std::span<const u8> in, u8 cpl) {
  std::size_t done = 0;
  while (done < in.size()) {
    const VAddr cur = va + static_cast<u32>(done);
    const u32 page_rem = kPageSize - (cur & kPageMask);
    const u32 chunk =
        std::min<u32>(page_rem, static_cast<u32>(in.size() - done));
    const auto tr = mmu_.probe(st_, cur, Access::kWrite, cpl, chunk);
    if (!tr.ok) return false;
    if (!mem_.contains(tr.pa, chunk)) return false;
    mem_.write_block(tr.pa, in.subspan(done, chunk));
    done += chunk;
  }
  return true;
}

}  // namespace vdbg::cpu
