// Mochi/Margo-style RPC engine on top of the simulated fabric.
//
// An `Engine` is one RPC endpoint — in SOMA terms, one service rank or one
// client stub. Servers `define` named handlers; clients `call` them with a
// datamodel::Node argument, and each call ends in one completion, as a
// Mercury forward ends in one callback that reads `hg_cb_info.ret`: it
// receives the raw response body on success, or the request body once the
// retry budget runs out, and the caller decodes only what it reads.
//
// Every RPC is raw underneath, as in Margo, where each RPC is one registered
// handler over one serialized body: there is one handler map and one request
// path. `call` packs its Node into the frame through `call_raw`, and
// `define` wraps its handler in a `define_raw` adapter that unpacks the body
// at dispatch. Batch and replication RPCs use the raw pair directly, with
// bodies that are not a single packed Node, and so does soma.publish, whose
// packed envelope both ends write and read field by field (net/wire.hpp).
//
// Names and addresses are resolved once, in Mercury's idiom: a caller
// addresses a destination by the `EndpointId` the network resolved its
// address to (`hg_addr_t`), and the frame's rpc name is looked up by
// `string_view` in a transparent hash (the lookup `hg_id_t` registration
// makes), at dispatch, so no per-message `std::string` is built. Frames still
// carry the rpc name, so wire bytes and byte-calibrated times are unchanged.
// Handlers still see the caller's address, by reference from the network's
// table.
//
// Service cost model: a server engine executes requests *serially* (one
// Margo progress loop / one process). Each request costs
//   base_cost + per_kib_cost * payload_KiB
// of engine time; requests arriving while the engine is busy queue up. The
// queueing delay is the mechanism by which an under-provisioned SOMA service
// falls behind at high monitoring frequency (paper Fig. 11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/unique_function.hpp"
#include "datamodel/node.hpp"
#include "net/network.hpp"

namespace soma::net {

// Payloads of `kBulkThreshold` bytes or more follow Mercury's bulk (RDMA)
// path: the receiver only registers the region and the NIC moves the bytes,
// so the per-KiB CPU charge drops to `kBulkPerKib` after a fixed
// registration cost. This mirrors how Mochi services absorb large TAU
// profiles without stalling their progress loop.
inline constexpr std::size_t kBulkThreshold = 64 * 1024;
inline constexpr Duration kBulkRegistration = Duration::microseconds(40);
inline constexpr Duration kBulkPerKib = Duration::nanoseconds(250);

/// Cost of ingesting one request at a server engine.
struct ServiceCost {
  Duration base = Duration::microseconds(25);
  Duration per_kib = Duration::microseconds(3);

  [[nodiscard]] static bool is_bulk(std::size_t payload_bytes) {
    return payload_bytes >= kBulkThreshold;
  }

  [[nodiscard]] Duration cost_for(std::size_t payload_bytes) const {
    const double kib = static_cast<double>(payload_bytes) / 1024.0;
    if (is_bulk(payload_bytes)) {
      return base + kBulkRegistration + kBulkPerKib * kib;
    }
    return base + per_kib * kib;
  }
};

/// Client-side reliability policy for one call. The default policy (no
/// timeout) reproduces the engine's historical behaviour exactly: the frame
/// is sent once and the caller waits forever.
///
/// With a timeout set, the call is retransmitted with exponential backoff —
/// attempt k waits timeout * backoff_multiplier^k (capped at max_timeout when
/// set) — until a response arrives or max_attempts transmissions have timed
/// out, at which point the completion fires with `ok == false` and the
/// request body. The engine keeps that one copy of the frame, as a Mercury
/// handle keeps its serialized input until released, so a caller that
/// re-sends a failed call rebuilds it from the body instead of keeping its
/// own copy. Retries reuse the original request id (at-least-once
/// semantics); a late response racing a retry is delivered once and
/// subsequent duplicates are suppressed and counted.
struct RetryPolicy {
  /// Total transmissions (1 = no retries).
  int max_attempts = 1;
  /// Per-attempt timeout; zero disables the reliability layer entirely.
  Duration timeout = Duration::zero();
  double backoff_multiplier = 2.0;
  /// Cap on the backed-off per-attempt timeout; zero = uncapped.
  Duration max_timeout = Duration::zero();

  [[nodiscard]] bool enabled() const { return timeout > Duration::zero(); }
  [[nodiscard]] Duration timeout_for(int attempt) const {
    Duration t = timeout;
    for (int i = 0; i < attempt; ++i) t = t * backoff_multiplier;
    if (max_timeout > Duration::zero() && t > max_timeout) t = max_timeout;
    return t;
  }
};

/// Aggregate statistics for one engine (exposed to the overhead analysis).
struct EngineStats {
  std::uint64_t requests_handled = 0;
  std::uint64_t bulk_transfers = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  // Reliability layer (all zero when every call uses the default policy).
  std::uint64_t timeouts = 0;             ///< per-attempt timer expiries
  std::uint64_t retries = 0;              ///< retransmissions sent
  std::uint64_t calls_failed = 0;         ///< calls that exhausted retries
  std::uint64_t duplicate_responses = 0;  ///< late replies after settlement
  std::uint64_t retried_requests = 0;     ///< server side: attempt > 0 arrivals
  Duration total_queue_delay;
  Duration max_queue_delay;
  Duration total_service_time;

  /// Accumulate `other` field by field (max for max_queue_delay).
  EngineStats& operator+=(const EngineStats& other);
};

class Engine {
 public:
  /// A server-side handler: caller address + request payload -> response.
  /// The engine moves the decoded request into `args`, so a handler may
  /// take it by value and move parts of it on; a handler declared with
  /// `const Node&` works unchanged.
  using Handler = std::function<datamodel::Node(const Address& caller,
                                                datamodel::Node args)>;
  /// How a call ended: `ok` with the response body, or not `ok` with the
  /// request body the engine kept for retransmission once the retry budget
  /// ran out. The view is valid only during the completion; the caller
  /// copies out what it keeps.
  struct Result {
    bool ok;
    std::span<const std::byte> body;
  };
  /// A call's completion: fires at most once, with the call's Result.
  using Completion = common::UniqueFunction<void(Result)>;
  /// A server-side handler over the raw frame body; the handler owns the
  /// decode. Every registered RPC is one of these.
  using RawHandler = std::function<datamodel::Node(
      const Address& caller, std::span<const std::byte> body)>;
  /// Packs a call body straight behind an already-written frame header.
  using BodyEncoder = std::function<void(std::vector<std::byte>& frame)>;

  Engine(Network& network, Address address, ServiceCost cost = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const Address& address() const {
    return network_.address(id_);
  }
  /// This engine's endpoint id; callers address it by id.
  [[nodiscard]] EndpointId id() const { return id_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] Network& network() { return network_; }

  /// Register a named RPC whose body is one packed Node. The body is
  /// unpacked when the request is dispatched (after its queueing delay), so
  /// a malformed body surfaces as a LookupError out of Simulation::run() at
  /// dispatch time. Throws ConfigError on duplicate names.
  void define(const std::string& rpc, Handler handler);

  /// Register a raw-body RPC: the handler receives the undecoded body span
  /// and decodes it itself. Shares the name space with `define`.
  void define_raw(const std::string& rpc, RawHandler handler);

  /// Invoke `rpc` at `dest` with a caller-encoded body. `body_size` must be
  /// the exact number of bytes `append_body` appends (it sizes the single
  /// frame allocation). Reliability semantics match `call`.
  void call_raw(EndpointId dest, std::string_view rpc, std::size_t body_size,
                const BodyEncoder& append_body, Completion on_done = nullptr,
                RetryPolicy policy = {});

  /// Invoke `rpc` at `dest`. `on_done` (optional) fires once: when the reply
  /// arrives back at this engine, or when `policy` gives the call up.
  /// Fire-and-forget calls still receive and count an acknowledgement, as
  /// Margo's forward/respond pair does. `policy` arms a per-attempt timeout
  /// with bounded exponential-backoff retransmission. A disabled policy
  /// (zero timeout, the default) sends the frame once and waits forever, so
  /// its completion only ever sees `ok`.
  void call(EndpointId dest, std::string_view rpc, const datamodel::Node& args,
            Completion on_done = nullptr, RetryPolicy policy = {});
  /// `call` by address, resolved on every call: for tests and cold paths.
  void call(const Address& dest, std::string_view rpc,
            const datamodel::Node& args, Completion on_done = nullptr,
            RetryPolicy policy = {}) {
    call(network_.resolve(dest), rpc, args, std::move(on_done), policy);
  }

  /// Time at which this engine finishes its current backlog. Equal to now
  /// when idle; used by tests and the saturation analysis.
  [[nodiscard]] SimTime busy_until() const { return busy_until_; }

 private:
  /// Client-side state of one in-flight call.
  struct PendingCall {
    Completion on_done;
    EndpointId dest;
    RetryPolicy policy;
    /// Encoded request, kept for retransmission and handed back, body only,
    /// to a failed call's completion (empty unless the policy is enabled —
    /// plain calls never pay the copy).
    std::vector<std::byte> frame;
    int attempt = 0;
    sim::EventHandle timeout;
  };

  /// Heterogeneous hash: a frame's rpc name is looked up as a string_view.
  struct RpcNameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  void on_message(EndpointId from, std::vector<std::byte> payload);
  /// Charges the request's service cost and queues the frame, which is kept
  /// alive until its dispatch.
  void handle_request(EndpointId from, std::uint64_t request_id,
                      std::vector<std::byte> frame);
  /// Runs a queued request: finds its handler by the frame's rpc name (an
  /// unknown rpc is answered with an error) and sends the response.
  void serve_request(EndpointId from, std::uint64_t request_id,
                     std::span<const std::byte> frame);
  void on_timeout(std::uint64_t request_id);

  Network& network_;
  EndpointId id_;
  ServiceCost cost_;
  std::unordered_map<std::string, RawHandler, RpcNameHash, std::equal_to<>>
      handlers_;
  /// Every call from send until its reply or its exhaustion, fire-and-forget
  /// calls included: a reply to an id not held here is a duplicate.
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_request_id_ = 1;
  SimTime busy_until_{};
  EngineStats stats_;
};

}  // namespace soma::net
