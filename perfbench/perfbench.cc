// One benchmark for the AXML library: end-to-end and per-layer metrics of
// one workload, driven from a single thread through the public API.
//
//   perfbench --workload fleet_read|fleet_churn|catalog_query
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// A run repeats *passes* until S seconds of wall time are used. A pass
// builds one *world* (the system and op stream of a world seed derived
// from --seed), warms its caches, then times a fixed number of steps.
// A workload has a fixed number of worlds; passes cycle through them,
// and every world runs at least once. A world's repeat must reproduce
// its simulated-time metrics and registry counts exactly: the run
// compares each pass's digest with the world's first pass and reports
// correct=false when one differs. Sim-side metrics and counts pool the
// first pass of every world, so they depend on the seed alone; host-time
// metrics pool every pass.
//
// Host time on a shared machine drifts with what other tenants run, by
// up to 2x within minutes. Between blocks of steps the run times a fixed
// benchmark-owned reference kernel, and the gated host-time metrics are
// scaled by kRefNominalNs / (its mean time in the run): they read as host
// time on a machine where the kernel takes kRefNominalNs. The unscaled
// values are printed too, with a _raw suffix.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs each world
// traced, then plain, and prints the per-layer metrics: host-time spans
// around every call into a layer, the registry counts of the timed
// window, a self-time table, the tracing overhead (plain vs traced
// ops_per_host_s), and a Chrome trace-event file of the first traced
// pass. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"
#include "net/catalog.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

struct PassResult {
  size_t world = 0;
  bool traced = false;
  double setup_s = 0;
  std::vector<OpRecord> warm;
  std::vector<OpRecord> ops;
  axml::MetricsSnapshot diff;  ///< registry delta over the timed window
  double max_node_share = 0;
  uint64_t candidates = 0;
  uint64_t plans = 0;
  std::vector<Span> spans;
  /// Reads+writes per host second of each throughput block.
  std::vector<double> block_rates;
  /// Reference kernel time after each block.
  std::vector<double> kernel_ns;
  /// Process high-water RSS when the pass ended.
  double peak_rss_mb = 0;
  uint64_t digest = 0;
};

/// FNV-1a over everything a pass produced that must repeat per seed.
class Digest {
 public:
  void Add(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  template <class T>
  void AddValue(T v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Host-time histograms are the only registry entries that may differ
/// between runs of one seed.
bool IsHostTimed(const std::string& name) {
  return name.rfind("wire/encode_ns", 0) == 0 ||
         name.rfind("wire/decode_ns", 0) == 0;
}

uint64_t PassDigest(const PassResult& r) {
  Digest d;
  for (const auto* list : {&r.warm, &r.ops}) {
    for (const OpRecord& op : *list) {
      d.AddValue(static_cast<int>(op.kind));
      d.AddValue(op.sim_ms);
      d.AddValue(op.failed);
      d.AddValue(op.mismatch);
    }
  }
  for (const auto& [name, v] : r.diff.values) {
    if (IsHostTimed(name)) continue;
    d.Add(name.data(), name.size());
    d.AddValue(v);
  }
  d.AddValue(r.max_node_share);
  d.AddValue(r.candidates);
  d.AddValue(r.plans);
  return d.value();
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Reference kernel time on the machine the bounds were measured on (a
/// 4-vCPU 2.1 GHz Xeon VM). It only sets the unit of the scaled metrics.
constexpr double kRefNominalNs = 1.7e6;

/// A fixed piece of work with the simulator's mix: a tree of
/// shared_ptr nodes with short strings, a string-keyed hash map, a sort,
/// and random reads over a 16 MiB array (a working set beyond L2, like
/// the 1024-peer fleet's). It uses no library code, so a change to the
/// library cannot change its speed.
class RefKernel {
 public:
  RefKernel() : big_(size_t{2} << 20, 1) {}

  /// Runs the kernel once; returns its wall time in ns.
  int64_t Time(uint64_t seed) {
    const int64_t t0 = NowNs();
    uint64_t x = seed * 2654435761u + 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    struct Node {
      uint64_t key = 0;
      std::string text;
      std::vector<std::shared_ptr<Node>> kids;
    };
    std::vector<std::shared_ptr<Node>> nodes;
    nodes.reserve(1500);
    for (int i = 0; i < 1500; ++i) {
      auto n = std::make_shared<Node>();
      n->key = next();
      n->text = std::to_string(n->key % 100000) + "-item";
      if (!nodes.empty()) nodes[next() % nodes.size()]->kids.push_back(n);
      nodes.push_back(std::move(n));
    }
    std::unordered_map<std::string, uint64_t> counts;
    for (const auto& n : nodes) counts[n->text] += n->key;
    std::vector<std::string> keys;
    for (const auto& [k, v] : counts) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    uint64_t sum = keys.size();
    for (int i = 0; i < 40000; ++i) sum += big_[next() & (big_.size() - 1)];
    for (const auto& n : nodes) n->kids.clear();  // break the cycles' refs
    sink_ += sum;
    return NowNs() - t0;
  }

 private:
  std::vector<uint64_t> big_;
  uint64_t sink_ = 0;  ///< keeps the work observable
};

/// The world seeds of one --seed are distinct and fixed.
uint64_t WorldSeed(uint64_t seed, size_t world) {
  return seed * 1000003 + world;
}

PassResult RunPass(const Args& a, size_t world, bool traced,
                   RefKernel* kernel) {
  PassResult r;
  r.world = world;
  r.traced = traced;
  std::unique_ptr<Workload> wl = MakeWorkload(a.workload);
  const int64_t t0 = NowNs();
  wl->BringUp(WorldSeed(a.seed, world));
  const int64_t bringup_ns = NowNs() - t0;
  axml::AxmlSystem& sys = wl->system();
  sys.wire_stats().timing_enabled = traced;
  Recorder rec(&sys);
  uint64_t step = 0;
  for (; step < wl->warmup_steps(); ++step) wl->RunStep(step, &rec);
  r.warm = rec.TakeOps();
  int64_t warm_ns = 0;
  for (const OpRecord& op : r.warm) warm_ns += op.host_ns;
  r.setup_s = static_cast<double>(bringup_ns + warm_ns) * 1e-9;

  const axml::MetricsSnapshot before = sys.metrics().Snapshot();
  const uint64_t cand0 = wl->candidates();
  const uint64_t plans0 = wl->plans();
  rec.set_tracing(traced);
  for (uint64_t b = 0; b < wl->pass_steps(); b += wl->block_steps()) {
    for (uint64_t k = 0; k < wl->block_steps(); ++k) wl->RunStep(step++, &rec);
    const std::vector<OpRecord> block = rec.TakeOps();
    int64_t ns = 0;
    uint64_t n = 0;
    for (const OpRecord& op : block) {
      ns += op.host_ns;
      n += op.kind != OpKind::kChurn;
    }
    r.block_rates.push_back(static_cast<double>(n) * 1e9 /
                            static_cast<double>(std::max<int64_t>(ns, 1)));
    r.ops.insert(r.ops.end(), block.begin(), block.end());
    r.kernel_ns.push_back(static_cast<double>(kernel->Time(b)));
  }
  rec.set_tracing(false);
  r.diff = sys.metrics().Snapshot().DiffSince(before);
  r.max_node_share = sys.catalog()->MaxNodeLoadShare();
  r.candidates = wl->candidates() - cand0;
  r.plans = wl->plans() - plans0;
  r.spans = rec.TakeSpans();
  r.digest = PassDigest(r);
  r.peak_rss_mb = PeakRssMb();
  return r;
}

/// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A metric printed in the table but left out of the JSON line.
  void Note(std::string name, double value, std::string unit) {
    notes_.push_back({std::move(name), value, std::move(unit)});
  }

  void PrintTable() const {
    for (const auto* list : {&metrics_, &notes_}) {
      for (const Metric& m : *list) {
        std::printf("  %-34s %16.6f %s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), list == &notes_ ? "  (table only)" : "");
      }
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (const Metric& m : metrics_) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      if (out.size() > 1) out += ", ";
      out += "\"";
      out += axml::JsonEscape(m.name);
      out += "\": {\"value\": ";
      out += buf;
      out += ", \"unit\": \"";
      out += axml::JsonEscape(m.unit);
      out += "\"}";
    }
    out += "}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

struct Pooled {
  std::vector<double> write_host_us;
  double op_host_s = 0;  ///< reads, writes and churn ops
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t churn_ops = 0;
  double write_host_s = 0;
  double churn_host_s = 0;
};

Pooled Pool(const std::vector<const PassResult*>& passes) {
  Pooled p;
  for (const PassResult* r : passes) {
    for (const OpRecord& op : r->ops) {
      const double s = static_cast<double>(op.host_ns) * 1e-9;
      p.op_host_s += s;
      switch (op.kind) {
        case OpKind::kRead:
          ++p.reads;
          break;
        case OpKind::kWrite:
          ++p.writes;
          p.write_host_s += s;
          p.write_host_us.push_back(s * 1e6);
          break;
        case OpKind::kChurn:
          ++p.churn_ops;
          p.churn_host_s += s;
          break;
      }
    }
  }
  return p;
}

/// The seed-determined side of a run: the first pass of every world.
struct SimTotals {
  std::vector<double> read_sim_ms;
  std::vector<double> write_sim_ms;
  double reads = 0;
  double writes = 0;
  std::map<std::string, double> counts;  ///< registry deltas, summed
  double max_node_share = 0;             ///< mean over worlds
  double candidates = 0;
  double plans = 0;
  double peak_rss_mb = 0;  ///< when the last world's first pass ended

  double count(const std::string& name) const {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  }
};

SimTotals Totals(const std::vector<PassResult>& passes, size_t worlds) {
  SimTotals t;
  std::vector<bool> seen(worlds, false);
  for (const PassResult& r : passes) {
    if (seen[r.world]) continue;
    seen[r.world] = true;
    for (const OpRecord& op : r.ops) {
      if (op.kind == OpKind::kRead) {
        ++t.reads;
        if (!op.failed) t.read_sim_ms.push_back(op.sim_ms);
      } else if (op.kind == OpKind::kWrite) {
        ++t.writes;
        t.write_sim_ms.push_back(op.sim_ms);
      }
    }
    for (const auto& [name, v] : r.diff.values) {
      t.counts[name] += static_cast<double>(v);
    }
    t.max_node_share += r.max_node_share / static_cast<double>(worlds);
    t.candidates += static_cast<double>(r.candidates);
    t.plans += static_cast<double>(r.plans);
    t.peak_rss_mb = r.peak_rss_mb;
  }
  return t;
}

/// Median over passes of each pass's `q`-quantile of host time per op of
/// `kind`. A pass slowed by another tenant crowds the top of a pooled
/// sample and drags a pooled tail quantile with it; it moves this median
/// little.
double PassMedianQuantile(const std::vector<const PassResult*>& passes,
                          OpKind kind, double q) {
  std::vector<double> per_pass;
  for (const PassResult* r : passes) {
    std::vector<double> us;
    for (const OpRecord& op : r->ops) {
      if (op.kind == kind) us.push_back(static_cast<double>(op.host_ns) * 1e-3);
    }
    if (!us.empty()) per_pass.push_back(Quantile(us, q));
  }
  return Quantile(per_pass, 0.5);
}

/// Median block throughput: a block that lost the CPU to another process
/// moves the median far less than it moves the pooled mean.
double MedianBlockRate(const std::vector<const PassResult*>& passes) {
  std::vector<double> rates;
  for (const PassResult* r : passes) {
    rates.insert(rates.end(), r->block_rates.begin(), r->block_rates.end());
  }
  return Quantile(rates, 0.5);
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

void EndToEnd(const std::vector<PassResult>& passes, const SimTotals& sim,
              Report* rep) {
  std::vector<const PassResult*> all;
  for (const PassResult& r : passes) all.push_back(&r);
  const std::vector<double>& read_sim = sim.read_sim_ms;
  const std::vector<double>& write_sim = sim.write_sim_ms;
  const double ops = sim.reads + sim.writes;
  std::vector<double> setups;
  std::vector<double> kernel_ns;
  for (const PassResult& r : passes) {
    setups.push_back(r.setup_s);
    kernel_ns.insert(kernel_ns.end(), r.kernel_ns.begin(), r.kernel_ns.end());
  }
  // > 1 when this machine ran the reference kernel slower than nominal.
  const double slowdown = Mean(kernel_ns) / kRefNominalNs;
  struct HostMetric {
    const char* name;
    double raw;
    const char* unit;
    bool is_rate;
  };
  const HostMetric host[] = {
      {"ops_per_host_s", MedianBlockRate(all), "ops/s", true},
      {"read_host_us_p50", PassMedianQuantile(all, OpKind::kRead, 0.50), "us",
       false},
      {"read_host_us_p99", PassMedianQuantile(all, OpKind::kRead, 0.99), "us",
       false},
      {"write_host_us_p50", PassMedianQuantile(all, OpKind::kWrite, 0.50),
       "us", false},
      {"write_host_us_p90", PassMedianQuantile(all, OpKind::kWrite, 0.90),
       "us", false},
      {"setup_s", Quantile(setups, 0.5), "s", false},
  };
  for (const HostMetric& m : host) {
    rep->Add(m.name, m.is_rate ? m.raw * slowdown : m.raw / slowdown,
             m.unit);
    rep->Note(std::string(m.name) + "_raw", m.raw, m.unit);
  }
  rep->Note("ref_kernel_ms", Mean(kernel_ns) * 1e-6, "ms");
  // Simulated latencies take few distinct values on the fleet (one per
  // link class and hop count), so their quantiles can repeat across
  // seeds; the gated metrics are the means, the quantiles are printed.
  rep->Add("read_sim_ms_mean", Mean(read_sim), "ms");
  rep->Add("write_sim_ms_mean", Mean(write_sim), "ms");
  rep->Note("read_sim_ms_p50", Quantile(read_sim, 0.50), "ms");
  rep->Note("read_sim_ms_p99", Quantile(read_sim, 0.99), "ms");
  rep->Note("write_sim_ms_p50", Quantile(write_sim, 0.50), "ms");
  rep->Note("write_sim_ms_p99", Quantile(write_sim, 0.99), "ms");
  rep->Add("wire_KB_per_op", Ratio(sim.count("net/total_bytes") / 1024.0, ops),
           "KB/op");
  rep->Add("msgs_per_op", Ratio(sim.count("net/total_messages"), ops),
           "msgs/op");
  // After one pass per world, so the figure does not grow with the number
  // of passes that fit in the run. It includes the reference kernel's
  // 16 MiB array, a constant offset.
  rep->Add("peak_rss_MB", sim.peak_rss_mb, "MB");
  rep->Note("peak_rss_MB_all_passes", passes.back().peak_rss_mb, "MB");
}

/// Per span name: inclusive durations and summed self time.
struct SpanStats {
  std::vector<double> incl_us;
  double self_s = 0;
};

std::map<std::string, SpanStats> SpanTable(
    const std::vector<const PassResult*>& traced, double* glue_s) {
  std::map<std::string, SpanStats> table;
  *glue_s = 0;
  for (const PassResult* r : traced) {
    const std::vector<Span>& spans = r->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = static_cast<double>(s.end_ns - s.start_ns -
                                              child_ns[i]) * 1e-9;
      if (s.parent < 0) {
        *glue_s += self;  // op root: benchmark code between its calls
        continue;
      }
      SpanStats& st = table[s.name];
      st.incl_us.push_back(static_cast<double>(s.end_ns - s.start_ns) *
                           1e-3);
      st.self_s += self;
    }
  }
  return table;
}

void PrintSelfTimes(const std::map<std::string, SpanStats>& table,
                    double glue_s, double op_host_s) {
  std::printf("per-layer self time (traced passes; share of op host time)\n");
  std::map<std::string, double> by_layer;
  for (const auto& [name, st] : table) {
    std::printf("  %-32s calls %8zu  self %10.3f ms  %6.2f%%\n",
                name.c_str(), st.incl_us.size(), st.self_s * 1e3,
                100 * Ratio(st.self_s, op_host_s));
    by_layer[name.substr(0, name.find('.'))] += st.self_s;
  }
  double sum = 0;
  for (const auto& [layer, s] : by_layer) {
    std::printf("  layer %-26s self %10.3f ms  %6.2f%%\n", layer.c_str(),
                s * 1e3, 100 * Ratio(s, op_host_s));
    sum += s;
  }
  std::printf("  %-32s      %10.3f ms  %6.2f%%  (of %.3f ms op host time)\n",
              "sum of layer self times", sum * 1e3,
              100 * Ratio(sum, op_host_s), op_host_s * 1e3);
  std::printf("  %-32s      %10.3f ms  (op spans outside any call)\n",
              "benchmark glue", glue_s * 1e3);
}

void WriteChromeTrace(const std::string& path, const PassResult& r) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  constexpr size_t kMaxSpans = 200000;
  const size_t n = std::min(r.spans.size(), kMaxSpans);
  const int64_t t0 = n == 0 ? 0 : r.spans[0].start_ns;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < n; ++i) {
    const Span& s = r.spans[i];
    const std::string name = s.name;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"op\": %llu, \"span\": %zu, "
                  "\"parent\": %d}}%s\n",
                  name.c_str(), name.substr(0, name.find('.')).c_str(),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.op), i, s.parent,
                  i + 1 < n ? "," : "");
    out << buf;
  }
  out << "]}\n";
  std::printf("chrome trace: %s (%zu spans of the first traced pass)\n",
              path.c_str(), n);
}

void PerLayer(const std::vector<PassResult>& passes, const SimTotals& sim,
              const std::string& trace_out, Report* rep) {
  std::vector<const PassResult*> traced;
  std::vector<const PassResult*> plain;
  for (const PassResult& r : passes) (r.traced ? traced : plain).push_back(&r);
  const Pooled t = Pool(traced);
  double glue_s = 0;
  std::map<std::string, SpanStats> table = SpanTable(traced, &glue_s);
  PrintSelfTimes(table, glue_s, t.op_host_s);
  if (!trace_out.empty()) WriteChromeTrace(trace_out, *traced.front());

  auto incl = [&](const char* name) -> std::vector<double>& {
    return table[name].incl_us;
  };
  auto share = [&](const char* name) {
    double s = 0;
    for (double us : table[name].incl_us) s += us * 1e-6;
    return Ratio(s, t.op_host_s);
  };
  auto total_us = [&](const char* name) {
    double s = 0;
    for (double us : table[name].incl_us) s += us;
    return s;
  };
  const double traced_ops = static_cast<double>(t.reads + t.writes);

  // Counts: registry deltas of the first pass of every world.
  auto v = [&](const char* name) { return sim.count(name); };
  const double ops = sim.reads + sim.writes;
  const double reads = sim.reads;
  const double writes = sim.writes;

  rep->Add("algebra.eval_us_p50",
           Quantile(incl("algebra.Evaluator::Eval"), 0.50), "us");
  rep->Add("algebra.eval_us_p99",
           Quantile(incl("algebra.Evaluator::Eval"), 0.99), "us");
  rep->Add("algebra.eval_share", share("algebra.Evaluator::Eval"), "fraction");
  rep->Add("algebra.remote_fetches_per_read",
           Ratio(v("eval/remote_fetches") + v("eval/sharded_fetches"), reads),
           "fetches/read");
  rep->Add("opt.optimize_us_p50",
           Quantile(incl("opt.Optimizer::Optimize"), 0.50), "us");
  rep->Add("opt.optimize_us_p99",
           Quantile(incl("opt.Optimizer::Optimize"), 0.99), "us");
  rep->Add("opt.optimize_share", share("opt.Optimizer::Optimize"), "fraction");
  rep->Add("opt.candidates_per_plan",
           Ratio(sim.candidates, sim.plans),
           "candidates/plan");
  rep->Add("query.parse_us", Quantile(incl("query.Query::Parse"), 0.50), "us");
  rep->Add("query.parse_share", share("query.Query::Parse"), "fraction");
  rep->Add("replica.write_us_p50", Quantile(t.write_host_us, 0.50), "us");
  rep->Add("replica.write_us_p90", Quantile(t.write_host_us, 0.90), "us");
  rep->Add("replica.write_share", Ratio(t.write_host_s, t.op_host_s),
           "fraction");
  // Only fleet_churn churns; it stays out of the gated workload set until
  // the library's livelock under churn is fixed, so these are table-only.
  rep->Note("peer.churn_us",
            Ratio(t.churn_host_s * 1e6, static_cast<double>(t.churn_ops)),
            "us/churn-op");
  rep->Note("peer.churn_share", Ratio(t.churn_host_s, t.op_host_s),
            "fraction");
  rep->Add("replica.cache_hit_ratio",
           Ratio(v("replica/cache/hits"),
                 v("replica/cache/hits") + v("replica/cache/misses")),
           "fraction");
  rep->Add("replica.lease_renewals_per_op",
           Ratio(v("replica/subscription/lease_renewals"), ops), "msgs/op");
  rep->Add("replica.digest_msgs_per_op",
           Ratio(v("net/class_msgs_digest"), ops), "msgs/op");
  rep->Add("replica.shard_reuse_ratio",
           Ratio(v("replica/shard/shards_reused"),
                 v("replica/shard/shards_reused") +
                     v("replica/shard/shards_shipped")),
           "fraction");
  rep->Add("replica.refresh_KB_per_write",
           Ratio(v("replica/subscription/refresh_bytes") / 1024.0, writes),
           "KB/write");
  rep->Add("net.msgs_per_op", Ratio(v("net/total_messages"), ops), "msgs/op");
  rep->Add("net.control_msgs_per_op", Ratio(v("net/control_messages"), ops),
           "msgs/op");
  rep->Add("net.dropped_msgs", v("net/dropped_messages"), "msgs");
  rep->Add("net.catalog.msgs_per_lookup",
           Ratio(v("catalog/lookup_messages"), v("catalog/lookups")),
           "msgs/lookup");
  rep->Add("net.catalog.max_node_share", sim.max_node_share, "fraction");
  rep->Add("xml.encode_us", Ratio(total_us("xml.wire_encode"), traced_ops),
           "us/op");
  rep->Add("xml.decode_us", Ratio(total_us("xml.wire_decode"), traced_ops),
           "us/op");
  rep->Add("xml.encode_share", share("xml.wire_encode"), "fraction");
  rep->Add("xml.decode_share", share("xml.wire_decode"), "fraction");
  rep->Add("xml.encode_calls_per_op", Ratio(v("wire/encode_calls"), ops),
           "calls/op");
  rep->Add("xml.encode_KB_per_op",
           Ratio(v("wire/encode_bytes") / 1024.0, ops), "KB/op");
  rep->Add("trace.glue_share", Ratio(glue_s, t.op_host_s + glue_s),
           "fraction");
  const double plain_rate = MedianBlockRate(plain);
  const double traced_rate = MedianBlockRate(traced);
  rep->Add("trace.overhead_ops_per_host_s", plain_rate - traced_rate, "ops/s");
  rep->Add("trace.overhead_pct",
           100 * Ratio(plain_rate - traced_rate, plain_rate), "%");
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a) || MakeWorkload(a.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "fleet_read|fleet_churn|catalog_query --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const size_t worlds = MakeWorkload(a.workload)->worlds();
  // A traced run passes over each world twice: traced, then plain.
  const size_t per_world = a.trace ? 2 : 1;
  const int64_t budget_ns = static_cast<int64_t>(a.seconds * 1e9);
  const int64_t start = NowNs();
  RefKernel kernel;
  std::vector<PassResult> passes;
  for (;;) {
    const size_t p = passes.size();
    passes.push_back(RunPass(a, (p / per_world) % worlds,
                             a.trace && p % per_world == 0, &kernel));
    const int64_t used = NowNs() - start;
    const int64_t per_pass = used / static_cast<int64_t>(passes.size());
    if (passes.size() >= worlds * per_world && used + per_pass > budget_ns) {
      break;
    }
  }
  std::vector<uint64_t> world_digest(worlds, 0);
  for (const PassResult& r : passes) {
    if (world_digest[r.world] == 0) world_digest[r.world] = r.digest;
  }
  Digest run_digest;
  for (uint64_t d : world_digest) run_digest.AddValue(d);
  const SimTotals sim = Totals(passes, worlds);

  uint64_t attempted = 0;
  uint64_t failed_evals = 0;
  uint64_t mismatches = 0;
  bool deterministic = true;
  for (const PassResult& r : passes) {
    deterministic = deterministic && r.digest == world_digest[r.world];
    for (const auto* list : {&r.warm, &r.ops}) {
      for (const OpRecord& op : *list) {
        if (op.kind == OpKind::kChurn) continue;
        ++attempted;
        failed_evals += op.failed;
        mismatches += op.mismatch;
      }
    }
  }
  const uint64_t failed = failed_evals + mismatches;
  const double error_rate = Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));

  Report rep;
  if (a.trace) {
    PerLayer(passes, sim, a.trace_out, &rep);
  } else {
    EndToEnd(passes, sim, &rep);
  }
  std::printf("workload %s seed %llu: %zu passes over %zu worlds, %zu timed "
              "ops each\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              passes.size(), worlds, passes.front().ops.size());
  rep.PrintTable();
  std::printf("  %-34s %16.6f fraction (%llu failed evals, %llu oracle "
              "mismatches, %llu ops)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(failed_evals),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(attempted));
  std::printf("sim_digest %016llx (%s across repeats of each world)\n",
              static_cast<unsigned long long>(run_digest.value()),
              deterministic ? "identical" : "DIFFERENT");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 && deterministic ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), rep.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
