#include "net/rpc.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "net/wire.hpp"

namespace soma::net {
namespace {

// Encode one response frame: header + body packed straight behind it. One
// allocation, exactly frame_size bytes, and one walk of the body for its
// size; no envelope tree on either side of the wire.
std::vector<std::byte> encode_response(std::uint64_t request_id,
                                       const datamodel::Node& body) {
  const std::size_t body_size = body.packed_size();
  std::vector<std::byte> frame;
  frame.reserve(wire::frame_size(wire::Kind::kResponse, 0, body_size));
  wire::append_header(frame, wire::Kind::kResponse, request_id, {});
  body.pack(frame, body_size);
  return frame;
}

}  // namespace

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  requests_handled += other.requests_handled;
  bulk_transfers += other.bulk_transfers;
  requests_sent += other.requests_sent;
  responses_received += other.responses_received;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  timeouts += other.timeouts;
  retries += other.retries;
  calls_failed += other.calls_failed;
  duplicate_responses += other.duplicate_responses;
  retried_requests += other.retried_requests;
  total_queue_delay += other.total_queue_delay;
  max_queue_delay = std::max(max_queue_delay, other.max_queue_delay);
  total_service_time += other.total_service_time;
  return *this;
}

Engine::Engine(Network& network, Address address, ServiceCost cost)
    : network_(network),
      id_(network.bind(address,
                       [this](EndpointId from, std::vector<std::byte> payload) {
                         on_message(from, std::move(payload));
                       })),
      cost_(cost) {}

Engine::~Engine() {
  for (auto& [id, call] : pending_) call.timeout.cancel();
  network_.unbind(id_);
}

void Engine::define(const std::string& rpc, Handler handler) {
  define_raw(rpc, [handler = std::move(handler)](
                      const Address& caller, std::span<const std::byte> body) {
    return handler(caller, datamodel::Node::unpack(body));
  });
}

void Engine::define_raw(const std::string& rpc, RawHandler handler) {
  if (!handlers_.emplace(rpc, std::move(handler)).second) {
    throw ConfigError("rpc already defined: " + rpc);
  }
}

void Engine::call(EndpointId dest, std::string_view rpc,
                  const datamodel::Node& args, Completion on_done,
                  RetryPolicy policy) {
  const std::size_t body_size = args.packed_size();
  call_raw(
      dest, rpc, body_size,
      [&args, body_size](std::vector<std::byte>& frame) {
        args.pack(frame, body_size);
      },
      std::move(on_done), policy);
}

void Engine::call_raw(EndpointId dest, std::string_view rpc,
                      std::size_t body_size, const BodyEncoder& append_body,
                      Completion on_done, RetryPolicy policy) {
  check(policy.max_attempts >= 1, "retry policy needs at least one attempt");
  const std::uint64_t id = next_request_id_++;

  std::vector<std::byte> frame;
  frame.reserve(wire::frame_size(wire::Kind::kRequest, rpc.size(), body_size));
  wire::append_header(frame, wire::Kind::kRequest, id, rpc);
  append_body(frame);

  // Register the pending call (and its retry timer), then send.
  PendingCall& pending = pending_.try_emplace(id).first->second;
  pending.on_done = std::move(on_done);
  pending.dest = dest;
  pending.policy = policy;
  if (policy.enabled()) {
    pending.frame = frame;  // retransmission copy
    pending.timeout = network_.simulation().schedule(
        policy.timeout_for(0), [this, id] { on_timeout(id); });
  }

  stats_.bytes_out += frame.size();
  ++stats_.requests_sent;
  network_.send(id_, dest, std::move(frame));
}

void Engine::on_timeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  ++stats_.timeouts;

  if (call.attempt + 1 >= call.policy.max_attempts) {
    // Retry budget exhausted: settle the call and hand its body back.
    ++stats_.calls_failed;
    Completion on_done = std::move(call.on_done);
    const std::vector<std::byte> frame = std::move(call.frame);
    pending_.erase(it);
    if (on_done) on_done({false, wire::decode_header(frame).body});
    return;
  }

  ++call.attempt;
  ++stats_.retries;
  std::vector<std::byte> frame = call.frame;
  wire::set_request_attempt(frame, static_cast<std::uint8_t>(call.attempt));
  call.timeout = network_.simulation().schedule(
      call.policy.timeout_for(call.attempt),
      [this, request_id] { on_timeout(request_id); });
  stats_.bytes_out += frame.size();
  ++stats_.requests_sent;
  network_.send(id_, call.dest, std::move(frame));
}

void Engine::on_message(EndpointId from, std::vector<std::byte> payload) {
  const wire::FrameHeader header = wire::decode_header(payload);

  if (header.kind == wire::Kind::kRequest) {
    if (header.attempt > 0) ++stats_.retried_requests;
    handle_request(from, header.request_id, std::move(payload));
  } else {
    ++stats_.responses_received;
    const auto it = pending_.find(header.request_id);
    if (it == pending_.end()) {
      // Request ids are never reused and every call stays pending until it
      // settles, so this is a late reply to a call that already settled via
      // an earlier reply or exhaustion.
      ++stats_.duplicate_responses;
      return;
    }
    PendingCall call = std::move(it->second);
    pending_.erase(it);
    call.timeout.cancel();
    if (call.on_done) call.on_done({true, header.body});
  }
}

void Engine::handle_request(EndpointId from, std::uint64_t request_id,
                            std::vector<std::byte> frame) {
  const std::size_t payload_bytes = frame.size();
  stats_.bytes_in += payload_bytes;
  if (cost_.is_bulk(payload_bytes)) ++stats_.bulk_transfers;

  // Serial service: the request waits until the engine has drained its
  // backlog, then occupies it for the ingest cost.
  sim::Simulation& simulation = network_.simulation();
  const SimTime now = simulation.now();
  const SimTime start = std::max(now, busy_until_);
  const Duration service = cost_.cost_for(payload_bytes);
  busy_until_ = start + service;

  const Duration queue_delay = start - now;
  stats_.total_queue_delay += queue_delay;
  stats_.max_queue_delay = std::max(stats_.max_queue_delay, queue_delay);
  stats_.total_service_time += service;

  auto serve = [this, from, request_id, frame = std::move(frame)] {
    serve_request(from, request_id, frame);
  };
  static_assert(sizeof(serve) <= sim::Simulation::Callback::kInlineSize,
                "the request closure must fit the event's inline buffer");
  simulation.schedule_at(busy_until_, std::move(serve));
}

void Engine::serve_request(EndpointId from, std::uint64_t request_id,
                           std::span<const std::byte> frame) {
  ++stats_.requests_handled;
  const wire::FrameHeader header = wire::decode_header(frame);
  datamodel::Node response;
  if (const auto it = handlers_.find(header.rpc); it != handlers_.end()) {
    response = it->second(network_.address(from), header.body);
  } else {
    warn({"rpc engine ", address(), ": unknown rpc '", header.rpc, "'"});
    std::string error = "unknown rpc: ";
    error += header.rpc;
    response["error"].set(std::move(error));
  }
  std::vector<std::byte> reply = encode_response(request_id, response);
  stats_.bytes_out += reply.size();
  network_.send(id_, from, std::move(reply));
}

}  // namespace soma::net
