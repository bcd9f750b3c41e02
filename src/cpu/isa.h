// VX32 instruction-set architecture definition.
//
// VX32 is the simulated 32-bit CPU this reproduction runs on. It is
// deliberately x86-shaped in every mechanism the paper's lightweight VMM
// depends on — three privilege rings with ring-gated instructions, two-level
// paging whose protection bits distinguish only user/supervisor, an IDT of
// in-memory gate descriptors, port-mapped I/O guarded by an I/O-permission
// bitmap, a trap flag for single-stepping and a one-word breakpoint opcode —
// while using a fixed 8-byte instruction word to keep decode trivial.
//
// Instruction word layout (little-endian):
//   byte 0: opcode
//   byte 1: rd   (destination register, or cr#/gate# for system ops)
//   byte 2: rs1  (first source register)
//   byte 3: rs2  (second source register)
//   bytes 4-7: imm32 (immediate / displacement / absolute target / port)
#pragma once

#include <array>
#include <string_view>

#include "common/types.h"

namespace vdbg::cpu {

inline constexpr unsigned kInstrBytes = 8;
inline constexpr unsigned kNumGprs = 8;

/// General purpose registers. r7 doubles as the stack pointer by ABI
/// convention (PUSH/POP/CALL/RET use it architecturally).
enum Reg : u8 {
  kR0 = 0,
  kR1,
  kR2,
  kR3,
  kR4,
  kR5,
  kR6,
  kSp,  // r7
};

enum class Opcode : u8 {
  kNop = 0x00,

  // Data movement.
  kMovI = 0x01,  // rd = imm
  kMov = 0x02,   // rd = rs1

  // ALU, register forms: rd = rs1 op rs2. Update Z/N (add/sub also C/V).
  kAdd = 0x10,
  kSub = 0x11,
  kAnd = 0x12,
  kOr = 0x13,
  kXor = 0x14,
  kShl = 0x15,
  kShr = 0x16,  // logical
  kSar = 0x17,  // arithmetic
  kMul = 0x18,
  kDivU = 0x19,  // #DE when divisor is zero
  kRemU = 0x1a,  // #DE when divisor is zero

  // ALU, immediate forms: rd = rs1 op imm.
  kAddI = 0x20,
  kSubI = 0x21,
  kAndI = 0x22,
  kOrI = 0x23,
  kXorI = 0x24,
  kShlI = 0x25,
  kShrI = 0x26,
  kSarI = 0x27,
  kMulI = 0x28,

  // Compare: set flags from rs1 - rs2 (or rs1 - imm), discard result.
  kCmp = 0x2e,
  kCmpI = 0x2f,

  // Memory. Effective address = rs1 + sign_extend(imm32).
  kLd8 = 0x30,   // rd = zero-extended byte
  kLd16 = 0x31,  // rd = zero-extended halfword
  kLd32 = 0x32,
  kSt8 = 0x33,  // [ea] = low byte of rs2
  kSt16 = 0x34,
  kSt32 = 0x35,

  // Control flow. Branch targets are absolute virtual addresses in imm.
  kJmp = 0x40,
  kJmpR = 0x41,  // pc = rs1
  kJz = 0x42,
  kJnz = 0x43,
  kJb = 0x44,   // unsigned < (C)
  kJae = 0x45,  // unsigned >= (!C)
  kJbe = 0x46,  // unsigned <= (C|Z)
  kJa = 0x47,   // unsigned > (!C & !Z)
  kJl = 0x48,   // signed < (N != V)
  kJge = 0x49,  // signed >= (N == V)
  kJle = 0x4a,  // signed <= (Z | N != V)
  kJg = 0x4b,   // signed > (!Z & N == V)
  kCall = 0x4c,
  kCallR = 0x4d,
  kRet = 0x4e,
  kPush = 0x4f,  // rs1
  kPop = 0x50,   // rd

  // System / privileged.
  kInt = 0x60,   // software interrupt, vector = imm & 0xff
  kIret = 0x61,  // privileged (CPL0); restores {err discarded, pc, psw, sp}
  kHlt = 0x62,   // privileged; idle until interrupt
  kCli = 0x63,   // privileged; clear IF
  kSti = 0x64,   // privileged; set IF
  kLidt = 0x65,  // privileged; IDT base = rs1, entry count = imm
  kMovToCr = 0x66,    // privileged; CR[rd] = rs1
  kMovFromCr = 0x67,  // privileged; rd = CR[rs1-as-cr#]
  kInvlpg = 0x68,     // privileged; invalidate TLB entry for VA in rs1
  kIn = 0x69,         // rd = 32-bit read of port imm (I/O bitmap checked)
  kOut = 0x6a,        // 32-bit write of rs1 to port imm (I/O bitmap checked)

  kBrk = 0x70,  // breakpoint: raises #BP; used by the remote debugger
};

/// Control registers (MOV to/from CR and internal use).
enum Cr : u8 {
  kCr0 = 0,  // bit 0: PG (paging enable)
  kCr2 = 2,  // page-fault linear address (written by hardware)
  kCr3 = 3,  // page-directory physical base (4 KiB aligned)
  // TSS-equivalents: stacks loaded on privilege-raising interrupt entry.
  kCrKernelSp = 4,   // stack for entries into ring 1
  kCrMonitorSp = 5,  // stack for entries into ring 0
  kNumCrs = 6,
};

inline constexpr u32 kCr0PgBit = 1u << 0;

/// Privilege levels. Ring 2 exists in the encoding but is unused, mirroring
/// x86 practice. Paging's U/S check treats ring 3 as user and everything
/// else as supervisor — the two-level limitation the paper works around.
enum Ring : u8 { kRing0 = 0, kRing1 = 1, kRing3 = 3 };

/// PSW (processor status word) bit layout. Pushed/popped whole on
/// interrupt entry / IRET.
struct Psw {
  static constexpr u32 kCplMask = 0x3;  // bits 0-1
  static constexpr u32 kIf = 1u << 2;   // interrupt enable
  static constexpr u32 kTf = 1u << 3;   // trap flag (single step)
  static constexpr u32 kZ = 1u << 4;
  static constexpr u32 kN = 1u << 5;
  static constexpr u32 kC = 1u << 6;
  static constexpr u32 kV = 1u << 7;
  static constexpr u32 kFlagsMask = kZ | kN | kC | kV;
};

/// Architectural exception vectors.
enum Vector : u8 {
  kVecDivide = 0,      // #DE
  kVecDebug = 1,       // #DB (TF single-step)
  kVecBreakpoint = 3,  // #BP (BRK opcode)
  kVecUndefined = 6,   // #UD
  kVecDoubleFault = 8,
  kVecGp = 13,  // #GP
  kVecPf = 14,  // #PF (CR2 holds the faulting VA)
  kNumExceptionVectors = 32,
  // External interrupt vectors start here by convention (PIC offset).
  kVecIrqBase = 32,
};

/// #PF error-code bits (x86 layout).
struct PfErr {
  static constexpr u32 kPresent = 1u << 0;  // 1 = protection, 0 = not present
  static constexpr u32 kWrite = 1u << 1;
  static constexpr u32 kUser = 1u << 2;
};

/// IDT gate descriptor as laid out in memory: 8 bytes.
///   word 0: handler virtual address
///   word 1: bit 0 present; bits 1-2 DPL (max CPL allowed to INT n);
///           bits 3-4 target ring (0 or 1).
struct Gate {
  u32 handler = 0;
  bool present = false;
  u8 dpl = 0;
  u8 target_ring = 0;

  static constexpr unsigned kBytes = 8;

  u32 pack_flags() const {
    return (present ? 1u : 0u) | (u32(dpl & 3) << 1) | (u32(target_ring & 3) << 3);
  }
  static Gate unpack(u32 handler_word, u32 flags_word) {
    Gate g;
    g.handler = handler_word;
    g.present = flags_word & 1;
    g.dpl = static_cast<u8>((flags_word >> 1) & 3);
    g.target_ring = static_cast<u8>((flags_word >> 3) & 3);
    return g;
  }
};

/// Decoded instruction.
struct Instr {
  Opcode op = Opcode::kNop;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  u32 imm = 0;

  std::array<u8, kInstrBytes> encode() const;
  static Instr decode(const u8 bytes[kInstrBytes]);
};

/// True when the opcode value corresponds to a defined instruction.
bool opcode_valid(u8 raw);

/// Mnemonic for disassembly/diagnostics ("add", "movi", ...).
std::string_view mnemonic(Opcode op);

/// Privileged instructions #GP when executed with CPL != 0. This set is what
/// makes VX32 classically virtualizable by trap-and-emulate: a guest kernel
/// de-privileged to ring 1 cannot silently observe or change machine state.
// Inline: the interpreter consults this on every executed instruction.
inline bool is_privileged(Opcode op) {
  switch (op) {
    case Opcode::kIret:
    case Opcode::kHlt:
    case Opcode::kCli:
    case Opcode::kSti:
    case Opcode::kLidt:
    case Opcode::kMovToCr:
    case Opcode::kMovFromCr:
    case Opcode::kInvlpg:
      return true;
    default:
      return false;
  }
}

/// True when `op` terminates a predecoded basic block: control transfers,
/// privileged/system ops, port I/O, and the trapping opcodes. The dispatch
/// fast path relies on the complement property: an instruction that is NOT a
/// terminator always advances pc by exactly kInstrBytes on success and can
/// never change the privilege level, the interrupt/trap flags, the paging
/// configuration, or any device state (so nothing can assert an interrupt or
/// halt/stop the CPU between two mid-block instructions).
inline bool is_block_terminator(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kJmpR:
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJb:
    case Opcode::kJae:
    case Opcode::kJbe:
    case Opcode::kJa:
    case Opcode::kJl:
    case Opcode::kJge:
    case Opcode::kJle:
    case Opcode::kJg:
    case Opcode::kCall:
    case Opcode::kCallR:
    case Opcode::kRet:
    case Opcode::kInt:
    case Opcode::kIret:
    case Opcode::kHlt:
    case Opcode::kCli:
    case Opcode::kSti:
    case Opcode::kLidt:
    case Opcode::kMovToCr:
    case Opcode::kMovFromCr:
    case Opcode::kInvlpg:
    case Opcode::kIn:
    case Opcode::kOut:
    case Opcode::kBrk:
      return true;
    default:
      return false;
  }
}

/// Terminators after which block dispatch may chain straight into the next
/// block without returning to the run() loop: plain control transfers that
/// only move pc (and, for call/ret, the stack). They cannot mask or unmask
/// interrupts, halt, enter the monitor, touch a device, change CPL/paging
/// or set the trap flag — so every condition the run() loop re-checks
/// between instructions is provably unchanged across them. Everything the
/// predicate excludes (INT/IRET/HLT/CLI/STI/CR writes/I-O/BRK/...) forces
/// dispatch back through run().
inline bool is_pure_branch(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kJmpR:
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJb:
    case Opcode::kJae:
    case Opcode::kJbe:
    case Opcode::kJa:
    case Opcode::kJl:
    case Opcode::kJge:
    case Opcode::kJle:
    case Opcode::kJg:
    case Opcode::kCall:
    case Opcode::kCallR:
    case Opcode::kRet:
      return true;
    default:
      return false;
  }
}

}  // namespace vdbg::cpu
