#pragma once

#include <cstdint>
#include <string>

#include "core/flow.hpp"
#include "core/json.hpp"

/// \file request.hpp
/// Request canonicalization for the serving layer. A `FlowRequest` is one
/// fully-specified flow evaluation: a technology plus every `FlowOptions`
/// knob. `canonical_text` renders all of it -- including nested placer /
/// congestion / timing / router / thermal-mesh options -- as a fixed-order
/// `key=value` line list (doubles in %.17g), and `request_key` hashes that
/// text with 64-bit FNV-1a. Two requests collide on a key iff every knob
/// that can influence the flow result is identical, which makes the key a
/// sound content address for the result cache.
///
/// The JSON form (`request_to_json` / `request_from_value`) is the wire
/// format of the `giad` daemon: clients may send any subset of the knobs;
/// missing fields keep their library defaults, so `{"tech":"glass3d"}` is a
/// complete request.

namespace gia::serve {

struct FlowRequest {
  tech::TechnologyKind tech = tech::TechnologyKind::Glass25D;
  core::FlowOptions options;
};

/// Deterministic full-knob rendering; the preimage of `request_key`.
std::string canonical_text(const FlowRequest& req);

/// 64-bit FNV-1a over `canonical_text(req)`.
std::uint64_t request_key(const FlowRequest& req);

/// Fixed-width lowercase-hex spelling of a key (cache filenames, logs).
/// Delegates to core::canon::key_hex.
std::string key_hex(std::uint64_t key);

/// 64-bit FNV-1a of an arbitrary byte string (exposed for tests).
/// Delegates to core::canon::fnv1a64 -- the same hash behind the stage
/// graph's per-stage artifact keys.
std::uint64_t fnv1a64(const std::string& bytes);

/// Canonical single-line JSON carrying every knob (`{"flow_request":{...}}`).
std::string request_to_json(const FlowRequest& req);
/// The bare knob object of `request_to_json` (`{...}`), appended to `out`
/// as a value through the core/json writer (e.g. a search spec's "base").
void write_request(const FlowRequest& req, std::string& out);

/// Parse a request from a `{"flow_request":{...}}` document or from the
/// bare inner object. Unknown keys are rejected; missing keys keep their
/// defaults. Throws std::runtime_error on malformed input.
FlowRequest request_from_value(const core::json::Value& v);
FlowRequest request_from_json(const std::string& text);

}  // namespace gia::serve
