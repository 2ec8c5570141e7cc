#include "src/server/protocol.h"

#include "src/common/frame.h"

namespace camo::server {

bool
writeJson(int fd, const obs::json::Value &doc)
{
    return frame::writeFrame(fd, doc.dump(), kMaxFrameBytes);
}

std::optional<obs::json::Value>
readJson(int fd)
{
    std::string payload;
    if (frame::readFrame(fd, &payload, kMaxFrameBytes) !=
        frame::ReadStatus::Ok)
        return std::nullopt;
    return obs::json::tryParse(payload);
}

obs::json::Value
errorResponse(const std::string &msg)
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["ok"] = false;
    v["error"] = msg;
    return v;
}

obs::json::Value
okResponse()
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["ok"] = true;
    return v;
}

} // namespace camo::server
