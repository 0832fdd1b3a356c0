// Web services (§2.1–2.2).
//
// A service s@p is provided by one peer, has a WSDL-like type signature
// (τin, τout), and is *continuous*: once invoked it may send any number
// of response trees ("we consider all services are continuous", §2.2).
//
// Two implementation flavors:
//  - declarative: the body is a visible AQL query. These enable the
//    optimizations of §3.3 ("the statements implementing such services
//    are visible to other peers, enabling many optimizations").
//  - native: an opaque C++ callback, standing in for arbitrary
//    WSDL-compliant services. The optimizer never rewrites through them.

#ifndef AXML_PEER_SERVICE_H_
#define AXML_PEER_SERVICE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "query/query.h"
#include "xml/schema.h"
#include "xml/tree.h"

namespace axml {

class Peer;

/// Body of a native (opaque) service: parameters in, response trees out.
using NativeServiceFn = std::function<Result<std::vector<TreePtr>>(
    const std::vector<TreePtr>& params, Peer* self)>;

/// One service definition hosted by a peer.
class Service {
 public:
  Service() = default;

  /// Declarative service: implemented by a visible query. The query's
  /// arity must equal the signature's input arity (or the signature may
  /// be omitted).
  static Service Declarative(ServiceName name, Query query);
  static Service Declarative(ServiceName name, Query query, Signature sig);

  /// Native service with an opaque body.
  static Service Native(ServiceName name, int arity, NativeServiceFn fn);
  static Service Native(ServiceName name, int arity, NativeServiceFn fn,
                        Signature sig);

  const ServiceName& name() const { return name_; }
  bool is_declarative() const { return query_.valid(); }
  /// The visible query body (declarative services only).
  const Query& query() const { return query_; }
  int arity() const { return arity_; }
  bool has_signature() const { return has_signature_; }
  const Signature& signature() const { return signature_; }

  /// Invokes a native body (is_declarative() must be false).
  Result<std::vector<TreePtr>> InvokeNative(
      const std::vector<TreePtr>& params, Peer* self) const;

 private:
  ServiceName name_;
  Query query_;
  NativeServiceFn native_;
  int arity_ = 0;
  bool has_signature_ = false;
  Signature signature_;
};

}  // namespace axml

#endif  // AXML_PEER_SERVICE_H_
