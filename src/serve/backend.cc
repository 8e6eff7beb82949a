#include "serve/backend.h"

#include "common/logging.h"

namespace boss::serve
{

Finished
DeviceBackend::finish(BuiltHandle built)
{
    auto *bq = static_cast<accel::BuiltQuery *>(built.get());
    BOSS_ASSERT(bq != nullptr, "finish() without a build");
    std::vector<accel::BuiltQuery> group;
    group.push_back(std::move(*bq));
    accel::SearchOutcome res =
        device_.replayBuilt(std::move(group));
    Finished fin;
    fin.topk = std::move(res.perQuery[0]);
    fin.simSeconds = res.simSeconds;
    fin.deviceBytes = res.deviceBytes;
    fin.shardSeconds = {res.simSeconds};
    return fin;
}

Finished
ShardedBackend::finish(BuiltHandle built)
{
    auto *bq =
        static_cast<api::ShardedDevice::Built *>(built.get());
    BOSS_ASSERT(bq != nullptr, "finish() without a build");
    api::ShardedOutcome res = device_.finishBuilt(std::move(*bq));
    Finished fin;
    fin.topk = std::move(res.perQuery[0]);
    fin.simSeconds = res.simSeconds;
    fin.deviceBytes = res.deviceBytes;
    fin.shardSeconds = std::move(res.shardSeconds);
    return fin;
}

} // namespace boss::serve
