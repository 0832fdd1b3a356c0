// Host-time instruments of the benchmark: every call the benchmark makes
// into the library goes through Recorder::Call, which times it with
// std::chrono::steady_clock. Per-op host time is the sum of an op's
// calls, so input generation and the correctness oracle (benchmark code
// between the calls) never count. With tracing on, each call also
// becomes a span (name, start, end, parent, op id) kept in memory, and
// the wire encode/decode time the library measured inside the call
// becomes two child spans, so the layer self times add up to the op
// time.

#ifndef AXML_PERFBENCH_HARNESS_H_
#define AXML_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "peer/system.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class OpKind { kRead, kWrite, kChurn };

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the span list; -1 for an op root
  uint64_t op = 0;
};

/// What one op cost and produced, as the workload reports it.
struct OpRecord {
  OpKind kind = OpKind::kRead;
  int64_t host_ns = 0;    ///< sum of the op's calls into the library
  double sim_ms = 0;      ///< simulated latency (reads and writes)
  bool failed = false;    ///< a call returned an error
  bool mismatch = false;  ///< the oracle rejected the output
};

/// Times calls into the library; records spans when tracing.
class Recorder {
 public:
  explicit Recorder(axml::AxmlSystem* sys) : sys_(sys) {}

  void set_tracing(bool on) { tracing_ = on; }

  /// Starts an op; its calls and outcome accumulate until EndOp.
  void BeginOp(OpKind kind) {
    op_ = OpRecord{};
    op_.kind = kind;
    ++op_id_;
    root_ = -1;
    if (tracing_) {
      root_ = static_cast<int32_t>(spans_.size());
      spans_.push_back({OpName(kind), NowNs(), 0, -1, op_id_});
    }
  }
  /// The op being recorded, for its outcome fields.
  OpRecord& op() { return op_; }
  /// Files the current op with the completed ones.
  void EndOp() {
    if (root_ >= 0) spans_[root_].end_ns = NowNs();
    done_.push_back(op_);
  }

  /// Completed ops since the last call.
  std::vector<OpRecord> TakeOps() { return std::move(done_); }

  /// Runs `fn` as one call into the library, named "<layer>.<call>".
  template <class F>
  auto Call(const char* name, F&& fn) -> decltype(fn()) {
    Scope scope(this, name);
    return fn();
  }

  /// Spans recorded so far (tracing only).
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  class Scope {
   public:
    Scope(Recorder* r, const char* name) : r_(r), name_(name) {
      if (r_->tracing_) {
        const axml::wire::WireStats& w = r_->sys_->wire_stats();
        enc0_ = w.encode_ns.sum();
        dec0_ = w.decode_ns.sum();
      }
      start_ = NowNs();
    }
    ~Scope() {
      const int64_t end = NowNs();
      r_->op_.host_ns += end - start_;
      if (!r_->tracing_) return;
      const axml::wire::WireStats& w = r_->sys_->wire_stats();
      const int64_t enc = static_cast<int64_t>(w.encode_ns.sum() - enc0_);
      const int64_t dec = static_cast<int64_t>(w.decode_ns.sum() - dec0_);
      std::vector<Span>& s = r_->spans_;
      const int32_t self = static_cast<int32_t>(s.size());
      s.push_back({name_, start_, end, r_->root_, r_->op_id_});
      // The library sums encode/decode time per call, not per message, so
      // the wire child spans are laid end to end from the call's start.
      int64_t at = start_;
      if (enc > 0) {
        s.push_back({"xml.wire_encode", at, at + enc, self, r_->op_id_});
        at += enc;
      }
      if (dec > 0) {
        s.push_back({"xml.wire_decode", at, at + dec, self, r_->op_id_});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* r_;
    const char* name_;
    int64_t start_ = 0;
    uint64_t enc0_ = 0;
    uint64_t dec0_ = 0;
  };

  static const char* OpName(OpKind k) {
    switch (k) {
      case OpKind::kRead:
        return "op.read";
      case OpKind::kWrite:
        return "op.write";
      case OpKind::kChurn:
        return "op.churn";
    }
    return "op";
  }

  axml::AxmlSystem* sys_;
  bool tracing_ = false;
  OpRecord op_;
  std::vector<OpRecord> done_;
  uint64_t op_id_ = 0;
  int32_t root_ = -1;
  std::vector<Span> spans_;
};

/// One workload: a system built from a world seed and a deterministic op
/// stream over it. Step `i` of a world is the same op on every run.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Brings the system up (peers, catalog, installs, advertisements).
  virtual void BringUp(uint64_t seed) = 0;
  /// Runs step `i` of the op stream: one read or write, preceded by a
  /// churn op on the steps where the schedule crashes or rejoins peers.
  /// Calls go through `rec`; the oracle checks every output.
  virtual void RunStep(uint64_t i, Recorder* rec) = 0;
  /// Independent worlds (seeds derived from --seed) a run covers; more
  /// worlds average out how much one seed's early choices shape the rest.
  virtual size_t worlds() const = 0;
  /// Steps run before the timed window (cache warm-up).
  virtual uint64_t warmup_steps() const = 0;
  /// Steps in one timed pass, and in one throughput block of it (a
  /// whole number of blocks per pass, each with the same op mix).
  virtual uint64_t pass_steps() const = 0;
  virtual uint64_t block_steps() const = 0;

  virtual axml::AxmlSystem& system() = 0;
  /// Optimizer candidates generated so far (0 without an optimizer).
  virtual uint64_t candidates() const { return 0; }
  virtual uint64_t plans() const { return 0; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // AXML_PERFBENCH_HARNESS_H_
