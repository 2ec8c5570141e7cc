/**
 * @file
 * Length-prefixed byte frames over file descriptors.
 *
 * The one wire encoding shared by every process boundary in the
 * simulator: camosimd's socket protocol (src/server/protocol.h) and
 * the result pipe of every forked child (src/common/child.h, used by
 * the daemon's worker and the sweep shards). A frame is a 4-byte
 * little-endian payload length followed by the payload; a length
 * above the caller's cap is rejected before any allocation, so a
 * corrupt or adversarial peer cannot make the reader balloon.
 */

#ifndef CAMO_COMMON_FRAME_H
#define CAMO_COMMON_FRAME_H

#include <cstdint>
#include <string>

namespace camo::frame {

/** Default payload cap (camosimd job results). */
inline constexpr std::uint32_t kDefaultMaxBytes = 4u << 20;
inline constexpr std::uint32_t kHeaderBytes = 4;

enum class ReadStatus
{
    Ok,
    Eof,      ///< clean end of stream at a frame boundary
    Error,    ///< I/O error or truncated frame
    Oversize, ///< length prefix above the cap
};

/** Append the frame (header + payload) to `out`. */
void encode(const std::string &payload, std::string *out);

/** Decode the little-endian length prefix. */
std::uint32_t decodeLength(const unsigned char *header);

/** Write one frame, retrying on EINTR and short writes. */
bool writeFrame(int fd, const std::string &payload,
                std::uint32_t max_bytes = kDefaultMaxBytes);

/** Read one frame, retrying on EINTR and short reads. */
ReadStatus readFrame(int fd, std::string *payload,
                     std::uint32_t max_bytes = kDefaultMaxBytes);

} // namespace camo::frame

#endif // CAMO_COMMON_FRAME_H
