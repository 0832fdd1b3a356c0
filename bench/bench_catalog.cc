// EXP-8: discovery structures (§2: "We make no assumption about the
// structure of the peer network, e.g. whether a DHT-style index is
// present or not. We will discuss the impact of various network
// structures.")
//
// Sweep: peer count P x structure (central index / routed Chord DHT /
// Gnutella-style flooding over a random 4-regular-ish graph). Each run
// resolves 50 lookups from random peers, each through the backend's
// Lookup on the system's network, run to completion.
// Expected shape: central stays flat (2 messages) but concentrates load
// on one node; DHT grows with log P; flooding grows with the edge count
// (≈ 2P..4P messages) while keeping low hop latency for near copies.

#include <functional>

#include "bench_common.h"
#include "net/catalog.h"

namespace axml {
namespace {

struct Setup {
  std::unique_ptr<AxmlSystem> sys;
  std::vector<PeerId> peers;
};

Setup Build(int64_t p_count) {
  Setup s;
  Topology topo(LinkParams{0.015, 1.0e6});
  // Random connected graph: ring + 2 chords per node.
  Rng rng(p_count);
  for (int64_t i = 0; i < p_count; ++i) {
    topo.AddNeighborEdge(PeerId(static_cast<uint32_t>(i)),
                         PeerId(static_cast<uint32_t>((i + 1) % p_count)));
  }
  for (int64_t i = 0; i < p_count; ++i) {
    topo.AddNeighborEdge(
        PeerId(static_cast<uint32_t>(i)),
        PeerId(static_cast<uint32_t>(rng.Uniform(
            static_cast<uint64_t>(p_count)))));
  }
  s.sys = std::make_unique<AxmlSystem>(std::move(topo));
  for (int64_t i = 0; i < p_count; ++i) {
    s.peers.push_back(s.sys->AddPeer(StrCat("n", i)));
  }
  return s;
}

void RunCatalog(benchmark::State& state,
                std::function<std::unique_ptr<Catalog>(const Setup&)> make) {
  Setup s = Build(state.range(0));
  std::unique_ptr<Catalog> cat = make(s);
  cat->set_peer_count(static_cast<uint32_t>(s.peers.size()));
  // 8 documents scattered over the peers.
  Rng rng(3);
  for (int d = 0; d < 8; ++d) {
    cat->Register(ResourceKind::kDocument, StrCat("d", d),
                  s.peers[rng.Index(s.peers.size())]);
  }
  for (auto _ : state) {
    // Each lookup runs alone, so its delay is the loop clock's advance
    // and its traffic the CatalogStats delta.
    cat->ResetStats();
    double delay = 0;
    int found = 0;
    const int kLookups = 50;
    for (int i = 0; i < kLookups; ++i) {
      PeerId from = s.peers[rng.Index(s.peers.size())];
      const SimTime start = s.sys->loop().now();
      std::vector<PeerId> holders;
      cat->Lookup(ResourceKind::kDocument, StrCat("d", i % 8), from,
                  &s.sys->network(),
                  [&holders](const std::vector<PeerId>& h) { holders = h; });
      s.sys->loop().Run();
      delay += s.sys->loop().now() - start;
      if (!holders.empty()) ++found;
    }
    const CatalogStats& cs = cat->stats();
    state.counters["avg_delay_ms"] = delay / kLookups * 1e3;
    state.counters["avg_msgs"] =
        static_cast<double>(cs.lookup_messages) / kLookups;
    state.counters["avg_bytes"] =
        static_cast<double>(cs.lookup_bytes) / kLookups;
    state.counters["hit_rate"] =
        static_cast<double>(found) / kLookups;
  }
}

void BM_Catalog_Central(benchmark::State& state) {
  RunCatalog(state, [](const Setup& s) {
    return std::make_unique<CentralCatalog>(s.peers[0]);
  });
}
void BM_Catalog_ChordDht(benchmark::State& state) {
  RunCatalog(state, [](const Setup&) {
    return std::make_unique<ChordDhtCatalog>();
  });
}
void BM_Catalog_Flood(benchmark::State& state) {
  RunCatalog(state, [](const Setup&) {
    return std::make_unique<FloodCatalog>(/*ttl=*/6);
  });
}

void Sweep(benchmark::internal::Benchmark* b) {
  for (int64_t p : {8, 32, 128, 512}) b->Args({p});
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Catalog_Central)->Apply(Sweep);
BENCHMARK(BM_Catalog_ChordDht)->Apply(Sweep);
BENCHMARK(BM_Catalog_Flood)->Apply(Sweep);

}  // namespace
}  // namespace axml

AXML_BENCH_MAIN();
