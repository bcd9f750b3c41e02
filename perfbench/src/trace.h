// Host-time tracing from outside the program: an in-memory span recorder
// plus the two wrappers the traced pass installs at layer boundaries the
// libraries already expose (the CPU's trap hook and the NIC's wire sink).
// Nothing here charges simulated cycles or touches simulated state, so a
// traced pass must reproduce the untraced pass bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cpu/cpu.h"
#include "stats.h"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory; the innermost open span is the parent of the next
/// one opened. Names are interned once, so recording costs two clock reads
/// and a vector append.
class SpanRecorder {
 public:
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::int32_t begin(std::uint32_t name) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), wall_ns(), 0});
    open_.push_back(idx);
    return idx;
  }

  void end(std::int32_t idx) {
    spans_[idx].end_ns = wall_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes "index,parent,name,start_ns,end_ns" rows, times relative to the
  /// first span. Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "index,parent,name,start_ns,end_ns\n");
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent,
                   names_[s.name].c_str(), (long long)(s.start_ns - t0),
                   (long long)(s.end_ns - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::string> names_;
};

/// Opens a span for its lifetime; a null recorder makes it a no-op, which
/// is how the untraced passes run the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint32_t name)
      : rec_(rec), idx_(rec ? rec->begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t idx_;
};

/// Matches a wrapper's calls against a counter the wrapped layer bumps
/// once per call, just before calling. Time-travel restores rewind the
/// counter; every call then continues from the restored value. The wrapper
/// saw every event exactly when calls == (end - start) + rewound and no
/// call ever found the counter ahead of it.
class Coverage {
 public:
  void start(std::uint64_t counter) { start_ = last_ = counter; }

  void on_call(std::uint64_t counter) {
    ++calls_;
    if (counter > last_ + 1) {
      missed_ += counter - last_ - 1;
    } else if (counter <= last_) {
      rewound_ += last_ + 1 - counter;
    }
    last_ = counter;
  }

  /// Closes the window; a counter that ran ahead after the last call means
  /// the wrapper was bypassed.
  void finish(std::uint64_t counter) {
    if (counter > last_) {
      missed_ += counter - last_;
    } else {
      rewound_ += last_ - counter;
    }
    end_ = counter;
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t counter_delta() const { return end_ - start_; }
  std::uint64_t rewound() const { return rewound_; }
  bool exact() const {
    return missed_ == 0 && calls_ == end_ - start_ + rewound_;
  }

 private:
  std::uint64_t start_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t end_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t missed_ = 0;
  std::uint64_t rewound_ = 0;
};

/// Forwards every monitor event to the monitor's own hook inside a
/// "vmm.exit" span.
class TracingTrapHook final : public vdbg::cpu::TrapHook {
 public:
  TracingTrapHook(vdbg::cpu::TrapHook& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec), name_(rec.intern("vmm.exit")) {}

  void on_event(vdbg::cpu::Cpu& cpu, const vdbg::cpu::Fault& f) override {
    coverage_.on_call(cpu.stats().hook_events);
    ScopedSpan s(&rec_, name_);
    inner_.on_event(cpu, f);
  }
  void on_external_interrupt(vdbg::cpu::Cpu& cpu, vdbg::u8 vector) override {
    coverage_.on_call(cpu.stats().hook_events);
    ScopedSpan s(&rec_, name_);
    inner_.on_external_interrupt(cpu, vector);
  }

  Coverage& coverage() { return coverage_; }

 private:
  vdbg::cpu::TrapHook& inner_;
  SpanRecorder& rec_;
  std::uint32_t name_;
  Coverage coverage_;
};

}  // namespace perfbench
