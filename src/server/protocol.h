/**
 * @file
 * Wire protocol of the camosimd experiment service: length-prefixed
 * JSON frames over a local Unix-domain stream socket.
 *
 * A frame is a camo::frame (src/common/frame.h): a 4-byte
 * little-endian payload length followed by that many bytes of UTF-8
 * JSON. Requests are objects with an "op" key (submit, status,
 * result, cancel, stats, drain, reload); responses are objects with
 * an "ok" bool and, on failure, an "error" string.
 * Frames above kMaxFrameBytes are a protocol violation: the daemon
 * answers with an error and drops the connection instead of
 * allocating attacker-controlled buffers.
 *
 * The JSON helpers here are blocking-fd oriented (client side and
 * tests); the daemon's poll loop does its own incremental buffering
 * with frame::encode and frame::decodeLength.
 */

#ifndef CAMO_SERVER_PROTOCOL_H
#define CAMO_SERVER_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>

#include "src/obs/json.h"

namespace camo::server {

/** Frame size cap: topology documents are small; anything bigger is
 *  a malformed or hostile frame. */
inline constexpr std::uint32_t kMaxFrameBytes = 4u << 20;

/** Serialize a JSON document into one frame on `fd`. Returns false
 *  on any unrecoverable error (EPIPE included — callers must ignore
 *  SIGPIPE). */
bool writeJson(int fd, const obs::json::Value &doc);

/** Read one frame and parse it; nullopt on EOF/error/bad JSON. */
std::optional<obs::json::Value> readJson(int fd);

/** {"ok": false, "error": msg} */
obs::json::Value errorResponse(const std::string &msg);

/** {"ok": true} to extend. */
obs::json::Value okResponse();

} // namespace camo::server

#endif // CAMO_SERVER_PROTOCOL_H
