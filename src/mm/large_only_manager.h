/**
 * @file
 * 2MB-only memory manager (the paper's §3.2 "large pages alone" design).
 *
 * Every virtual 2MB chunk overlapping an allocation gets a whole large
 * page frame; demand paging transfers 2MB per far-fault; translations are
 * always large. Internal fragmentation (a frame committed for a tail of
 * a buffer) produces the memory bloat the paper measures (+40.2% mean).
 */

#ifndef MOSAIC_MM_LARGE_ONLY_MANAGER_H
#define MOSAIC_MM_LARGE_ONLY_MANAGER_H

#include <unordered_map>
#include <vector>

#include "mm/frame_pool.h"
#include "mm/memory_manager.h"

namespace mosaic {

/** Allocates and pages at large-page granularity only. */
class LargeOnlyManager : public MemoryManager
{
  public:
    LargeOnlyManager(Addr poolBase, std::uint64_t poolBytes);

    void setEnv(const ManagerEnv &env) override { env_ = env; }
    void registerApp(AppId app, PageTable &pageTable) override;
    void reserveRegion(AppId app, Addr vaBase, std::uint64_t bytes) override;
    bool backPage(AppId app, Addr va) override;
    void releaseRegion(AppId app, Addr vaBase, std::uint64_t bytes) override;
    PageSize transferGranularity() const override { return PageSize::Large; }
    std::uint64_t allocatedBytes() const override;
    const MemoryManagerStats &stats() const override { return stats_; }
    const FramePool *framePool() const override { return &pool_; }

    void serialize(ckpt::Archive &ar) override;

  private:
    struct AppState
    {
        PageTable *pageTable = nullptr;
        /** Frame per virtual large page number. */
        std::unordered_map<std::uint64_t, std::uint32_t> chunkFrames;

        /** Checkpoint hook: everything but the page-table wiring. */
        void
        serialize(ckpt::Archive &ar)
        {
            ar.io(chunkFrames, 1u << 28, "chunk frames");
        }
    };

    FramePool pool_;
    ManagerEnv env_;
    std::vector<std::uint32_t> freeFrames_;
    std::unordered_map<AppId, AppState> apps_;
    std::uint64_t framesHeld_ = 0;
    MemoryManagerStats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_MM_LARGE_ONLY_MANAGER_H
