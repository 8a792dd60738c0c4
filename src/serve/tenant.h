// TenantGovernor: per-tenant token-bucket admission for the serve front end.
//
// Every generate request and threshold query carries a u32 tenant id in its
// header (0 is the default tenant). Each tenant owns a token bucket refilled
// at rate_per_sec up to burst tokens; admitting a request costs one token. A tenant storming
// past its rate only drains its own bucket — the fleet's admission queues
// stay available to everyone else — and is shed with a typed kRateLimited
// carrying the earliest time a retry can be admitted.
//
// The default policy (rate 0) is UNLIMITED and a strict no-op: admit()
// returns immediately without touching any lock or map, so a server
// configured without --tenant-rate pays nothing and responses stay
// bit-identical to the pre-admission code path.
//
// The governor is called from the single epoll loop thread, but is guarded
// by a mutex anyway so tests and future multi-loop servers can share one
// instance; the critical section is a map lookup plus a few flops.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace flashgen::serve {

struct TenantPolicy {
  /// Sustained admission rate per tenant, requests/second. 0 (default)
  /// disables per-tenant admission entirely.
  double rate_per_sec = 0.0;
  /// Bucket capacity: how many requests a tenant can burst above the
  /// sustained rate. <= 0 defaults to max(rate_per_sec, 1) — one second of
  /// rate, never less than a single request.
  double burst = 0.0;
};

class TenantGovernor {
 public:
  struct Decision {
    bool admitted = true;
    /// When rejected: micros until the bucket next holds a full token.
    std::uint64_t retry_after_micros = 0;
  };

  explicit TenantGovernor(TenantPolicy policy);

  /// True when the policy actually limits (rate > 0).
  bool enabled() const { return policy_.rate_per_sec > 0.0; }
  const TenantPolicy& policy() const { return policy_; }

  /// Charges one token to `tenant_id`'s bucket at the current time.
  Decision admit(std::uint32_t tenant_id) {
    return admit(tenant_id, std::chrono::steady_clock::now());
  }
  /// Injectable-clock flavor for deterministic unit tests.
  Decision admit(std::uint32_t tenant_id, std::chrono::steady_clock::time_point now);

  /// Tenants currently tracked (test probe).
  std::size_t tracked_tenants() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last{};
  };

  TenantPolicy policy_;
  double burst_ = 0.0;  // resolved capacity (policy_.burst with the default applied)
  mutable std::mutex mutex_;
  std::unordered_map<std::uint32_t, Bucket> buckets_;
};

}  // namespace flashgen::serve
