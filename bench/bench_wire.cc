// Wire-format encode/decode throughput (docs/wire-format.md).
//
// Every priced transfer in the simulator now runs through
// wire::EncodeTree / wire::DecodeTree, so the codec's throughput bounds
// how large a simulated fleet the harness can drive per wall-clock
// second. This bench reports MB/s over a document-size sweep, plus the
// compression the interned-label + varint layout buys over the XML text
// the simulator used to price (`xml_ratio`).
//
// Timing histograms (WireStats.timing_enabled) are exercised here —
// simulations leave them off so deterministic twins stay byte-identical.

#include "bench_common.h"
#include "xml/wire.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

struct Setup {
  TreePtr tree;
  std::string blob;
  uint64_t xml_bytes = 0;
};

Setup Build(int64_t n) {
  Setup s;
  static NodeIdGen gen;
  Rng rng(13);
  s.tree = bench::MakeCatalog(static_cast<size_t>(n), &gen, &rng,
                              /*desc_bytes=*/64);
  s.blob = wire::EncodeTree(*s.tree);
  s.xml_bytes = SerializeCompact(*s.tree).size();
  return s;
}

void Report(benchmark::State& state, const Setup& s,
            const wire::WireStats& stats) {
  state.SetBytesProcessed(static_cast<int64_t>(s.blob.size()) *
                          state.iterations());
  state.counters["blob_KB"] = static_cast<double>(s.blob.size()) / 1024.0;
  state.counters["xml_ratio"] = static_cast<double>(s.xml_bytes) /
                                static_cast<double>(s.blob.size());
  state.counters["MB_per_s"] = benchmark::Counter(
      static_cast<double>(s.blob.size()) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
  if (stats.timing_enabled && stats.encode_ns.count() > 0) {
    state.counters["encode_p50_ns"] =
        static_cast<double>(stats.encode_ns.ApproxQuantile(0.5));
  }
  if (stats.timing_enabled && stats.decode_ns.count() > 0) {
    state.counters["decode_p50_ns"] =
        static_cast<double>(stats.decode_ns.ApproxQuantile(0.5));
  }
}

void BM_Wire_EncodeTree(benchmark::State& state) {
  Setup s = Build(state.range(0));
  wire::WireStats stats;
  stats.timing_enabled = true;
  for (auto _ : state) {
    std::string blob = wire::EncodeTree(*s.tree, &stats);
    benchmark::DoNotOptimize(blob);
  }
  Report(state, s, stats);
}

void BM_Wire_DecodeTree(benchmark::State& state) {
  Setup s = Build(state.range(0));
  wire::WireStats stats;
  stats.timing_enabled = true;
  NodeIdGen gen;
  for (auto _ : state) {
    Result<TreePtr> t = wire::DecodeTree(s.blob, &gen, &stats);
    AXML_CHECK(t.ok());
    benchmark::DoNotOptimize(t);
  }
  Report(state, s, stats);
}

void BM_Wire_RoundTrip(benchmark::State& state) {
  Setup s = Build(state.range(0));
  wire::WireStats stats;
  NodeIdGen gen;
  for (auto _ : state) {
    std::string blob = wire::EncodeTree(*s.tree, &stats);
    Result<TreePtr> t = wire::DecodeTree(blob, &gen, &stats);
    AXML_CHECK(t.ok());
    benchmark::DoNotOptimize(t);
  }
  Report(state, s, stats);
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t n : {8, 64, 512, 4096}) {
    b->Args({n});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Wire_EncodeTree)->Apply(Sweep);
BENCHMARK(BM_Wire_DecodeTree)->Apply(Sweep);
BENCHMARK(BM_Wire_RoundTrip)->Apply(Sweep);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
