// A peer (§2): "a context of computation ... a hosting environment for
// documents and services".
//
// The Peer owns its documents (unique names per peer), its service
// registry, and its NodeIdGen. It also carries a compute-speed parameter
// used by the simulator to charge evaluation time (the paper's delegation
// rule (10) only pays off because peers differ in load/power).

#ifndef AXML_PEER_PEER_H_
#define AXML_PEER_PEER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "peer/service.h"
#include "query/executor.h"
#include "xml/tree.h"

namespace axml {

/// One peer of the AXML system.
class Peer {
 public:
  Peer(PeerId id, std::string name);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  PeerId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Trees-per-second processing rate used to charge evaluation time.
  double compute_speed() const { return compute_speed_; }
  void set_compute_speed(double nodes_per_s) {
    compute_speed_ = nodes_per_s;
  }
  /// Virtual seconds to process `nodes` tree nodes on this peer.
  double ComputeTime(uint64_t nodes) const {
    return static_cast<double>(nodes) / compute_speed_;
  }

  /// Mints node ids owned by this peer.
  NodeIdGen* gen() { return &gen_; }

  // --- Documents ---

  /// Installs a document; fails with kAlreadyExists on a name collision
  /// ("No two documents can agree on the values of (d, p)", §2.1).
  Status InstallDocument(DocName name, TreePtr root);
  /// Replaces or creates.
  void PutDocument(DocName name, TreePtr root);
  Status RemoveDocument(const DocName& name);
  /// nullptr when absent.
  TreePtr GetDocument(const DocName& name) const;
  bool HasDocument(const DocName& name) const;
  const std::map<DocName, TreePtr>& documents() const { return docs_; }

  /// Finds the node `id` in any document; nullptr when absent.
  TreeNode* FindNode(NodeId id);
  /// Document containing node `id`; empty when absent.
  DocName FindDocumentOfNode(NodeId id) const;

  /// Appends `tree` as a child of node `target` (the landing step of
  /// send-to-node, §3.2 def. (4)). The tree is *not* cloned; callers
  /// clone when crossing peers.
  Status AppendUnderNode(NodeId target, TreePtr tree);

  // --- Services ---

  Status InstallService(Service service);
  /// Replaces or creates (used by query shipping, def. (8)).
  void PutService(Service service);
  Status RemoveService(const ServiceName& name);
  const Service* GetService(const ServiceName& name) const;
  bool HasService(const ServiceName& name) const;
  const std::map<ServiceName, Service>& services() const {
    return services_;
  }

  /// Resolver for doc(...) references in queries evaluated at this peer.
  DocResolver AsDocResolver() const;

  /// Called after every document mutation on this peer (install, put,
  /// remove, append-under-node) with the affected name. Listeners fan
  /// out in registration order: AxmlSystem wires the first one to the
  /// ReplicaManager (version bump + push to copy holders); tests and
  /// benches append their own (e.g. mutation counters) without
  /// disturbing the replica wiring.
  using MutationListener = std::function<void(const DocName&)>;
  void add_mutation_listener(MutationListener fn) {
    on_mutation_.push_back(std::move(fn));
  }

 private:
  void NotifyMutation(const DocName& name) {
    for (const MutationListener& fn : on_mutation_) {
      if (fn) fn(name);
    }
  }

  PeerId id_;
  std::string name_;
  NodeIdGen gen_;
  double compute_speed_ = 1.0e6;
  std::map<DocName, TreePtr> docs_;
  std::map<ServiceName, Service> services_;
  std::vector<MutationListener> on_mutation_;
};

}  // namespace axml

#endif  // AXML_PEER_PEER_H_
