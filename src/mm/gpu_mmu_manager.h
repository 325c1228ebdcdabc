/**
 * @file
 * Baseline GPU-MMU memory manager (Power et al. [92], as modeled in §3.1).
 *
 * The baseline allocates physical base pages in arrival order from a
 * shared cursor: pages demanded by different applications interleave
 * within the same large page frame (paper Fig. 1a). Because frames mix
 * address spaces and virtual contiguity is not preserved, base pages can
 * never be coalesced without migration, so this manager never coalesces.
 */

#ifndef MOSAIC_MM_GPU_MMU_MANAGER_H
#define MOSAIC_MM_GPU_MMU_MANAGER_H

#include <unordered_map>
#include <vector>

#include "mm/frame_pool.h"
#include "mm/memory_manager.h"

namespace mosaic {

/** The state-of-the-art baseline allocator. */
class GpuMmuManager : public MemoryManager
{
  public:
    /**
     * @param poolBase physical address of managed memory (2MB aligned)
     * @param poolBytes managed capacity (multiple of 2MB)
     */
    GpuMmuManager(Addr poolBase, std::uint64_t poolBytes);

    void setEnv(const ManagerEnv &env) override { env_ = env; }
    void registerApp(AppId app, PageTable &pageTable) override;
    void reserveRegion(AppId app, Addr vaBase, std::uint64_t bytes) override;
    bool backPage(AppId app, Addr va) override;
    void releaseRegion(AppId app, Addr vaBase, std::uint64_t bytes) override;
    std::uint64_t allocatedBytes() const override;
    const MemoryManagerStats &stats() const override { return stats_; }
    const FramePool *framePool() const override { return &pool_; }

    /** Frame bookkeeping (tests/inspection). */
    const FramePool &pool() const { return pool_; }

    void serialize(ckpt::Archive &ar) override;

  private:
    FramePool pool_;
    ManagerEnv env_;
    std::unordered_map<AppId, PageTable *> apps_;
    /** (frame, slot) pairs released by deallocations, reused first. */
    std::vector<std::pair<std::uint32_t, std::uint16_t>> recycledSlots_;
    std::size_t cursorFrame_ = 0;
    unsigned cursorSlot_ = 0;
    MemoryManagerStats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_MM_GPU_MMU_MANAGER_H
