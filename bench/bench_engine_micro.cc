// EXP-10: substrate micro-benchmarks. Not a paper claim — these
// establish that the simulator's own machinery (parser, serializer,
// query executor, event loop) is fast enough that the virtual-time
// measurements of EXP-1..9 are not an artifact of host overheads.

#include "bench_common.h"
#include "query/query.h"
#include "xml/wire.h"
#include "xml/xml_parser.h"
#include "xml/xml_serializer.h"

namespace axml {
namespace {

void BM_XmlParse(benchmark::State& state) {
  NodeIdGen gen;
  Rng rng(1);
  TreePtr t = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                 &gen, &rng);
  std::string xml = SerializeCompact(*t);
  for (auto _ : state) {
    NodeIdGen g;
    auto r = ParseXml(xml, &g);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(xml.size()) *
                          state.iterations());
}

void BM_XmlSerialize(benchmark::State& state) {
  NodeIdGen gen;
  Rng rng(2);
  TreePtr t = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                 &gen, &rng);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string s = SerializeCompact(*t);
    bytes = s.size();
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          state.iterations());
}

void BM_QuerySelect(benchmark::State& state) {
  NodeIdGen gen;
  Rng rng(3);
  TreePtr t = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                 &gen, &rng);
  Query q = Query::Parse(
                "for $p in input(0)/catalog/product "
                "where $p/price < 100 return <r>{ $p/name }</r>")
                .value();
  for (auto _ : state) {
    auto out = q.Eval({{t}}, nullptr, &gen);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}

void BM_QueryJoin(benchmark::State& state) {
  NodeIdGen gen;
  Rng rng(4);
  TreePtr l = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                 &gen, &rng, 0);
  TreePtr r = bench::MakeCatalog(static_cast<size_t>(state.range(0)),
                                 &gen, &rng, 0);
  Query q = Query::Parse(
                "for $a in input(0)/catalog/product "
                "for $b in input(1)/catalog/product "
                "where $a/name = $b/name return <m/>")
                .value();
  for (auto _ : state) {
    auto out = q.Eval({{l}, {r}}, nullptr, &gen);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}

void BM_QueryParse(benchmark::State& state) {
  const std::string text =
      "for $a in input(0)/catalog/product for $b in $a/name "
      "where $a/price < 30 and contains($a/category, \"c1\") "
      "return <res>{ $b, count($a) }</res>";
  for (auto _ : state) {
    auto q = Query::Parse(text);
    benchmark::DoNotOptimize(q);
  }
}

void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int64_t remaining = state.range(0);
    std::function<void()> tick = [&] {
      if (--remaining > 0) loop.ScheduleAfter(0.001, tick);
    };
    loop.ScheduleAfter(0.001, tick);
    loop.Run();
    benchmark::DoNotOptimize(loop.executed());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}

void BM_NetworkMessageRate(benchmark::State& state) {
  // A 100-byte message: header, length byte, 97 bytes of text.
  const wire::Payload message =
      wire::EncodeText(wire::MessageClass::kQuery, std::string(97, 'q'));
  for (auto _ : state) {
    EventLoop loop;
    Network net(&loop, Topology(LinkParams{0.001, 1e9}));
    for (int64_t i = 0; i < state.range(0); ++i) {
      net.Send(PeerId(0), PeerId(1), message, nullptr);
    }
    loop.Run();
    benchmark::DoNotOptimize(net.stats().total_messages());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}

BENCHMARK(BM_XmlParse)->Arg(100)->Arg(1000);
BENCHMARK(BM_XmlSerialize)->Arg(100)->Arg(1000);
BENCHMARK(BM_QuerySelect)->Arg(100)->Arg(1000);
BENCHMARK(BM_QueryJoin)->Arg(32)->Arg(128);
BENCHMARK(BM_QueryParse);
BENCHMARK(BM_EventLoopThroughput)->Arg(10000);
BENCHMARK(BM_NetworkMessageRate)->Arg(10000);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
