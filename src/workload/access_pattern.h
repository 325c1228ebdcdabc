/**
 * @file
 * Synthetic warp instruction streams.
 *
 * Each warp of an application runs a SyntheticWarpStream: a repeating
 * pattern of compute instructions followed by one memory instruction.
 * Memory accesses either stream sequentially through the application's
 * touched data (each warp starts at its own offset so warps collectively
 * sweep the working set, as coalesced GPGPU kernels do) or hit a random
 * page inside the application's hot region. All randomness derives from
 * an explicit seed, so streams are reproducible.
 */

#ifndef MOSAIC_WORKLOAD_ACCESS_PATTERN_H
#define MOSAIC_WORKLOAD_ACCESS_PATTERN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "gpu/warp.h"
#include "workload/app_params.h"

namespace mosaic {

/**
 * Virtual-address layout of one application instance: every buffer is
 * placed at a large-page-aligned virtual address (GPU runtimes align
 * big allocations), leaving the tail of the last chunk unused.
 */
class AppLayout
{
  public:
    /** Builds the layout for @p params with buffers from @p vaBase. */
    AppLayout(const AppParams &params, Addr vaBase);

    /** Virtual address ranges of the buffers. */
    struct Buffer
    {
        Addr va;
        std::uint64_t bytes;
        std::uint64_t touchedBytes;
    };

    /** All buffers in layout order. */
    const std::vector<Buffer> &buffers() const { return buffers_; }

    /**
     * Moves buffer @p idx to a new virtual base (the application
     * replaced it with a fresh allocation). Subsequent stream accesses
     * follow the new address; the caller is responsible for releasing
     * the old region and reserving the new one with the memory manager.
     * @pre newVa is large-page aligned.
     */
    void rebaseBuffer(std::size_t idx, Addr newVa);

    /** Total touched bytes across buffers. */
    std::uint64_t totalTouched() const { return totalTouched_; }

    /** Maps a global touched-space offset to a virtual address. */
    Addr touchedOffsetToVa(std::uint64_t offset) const;

    /** First virtual address of the layout. */
    Addr vaBase() const { return vaBase_; }

    /** One-past-the-end virtual address of the layout. */
    Addr vaEnd() const { return vaEnd_; }

  private:
    Addr vaBase_;
    Addr vaEnd_;
    std::vector<Buffer> buffers_;
    std::vector<std::uint64_t> touchedPrefix_;  ///< exclusive prefix sums
    std::uint64_t totalTouched_ = 0;
};

/** The synthetic per-warp instruction stream. */
class SyntheticWarpStream : public WarpStream
{
  public:
    /**
     * @param params application model
     * @param layout the application's address layout
     * @param warpIndex this warp's index within the application
     * @param totalWarps total warps of the application
     * @param seed RNG seed (vary per warp for decorrelated streams)
     */
    SyntheticWarpStream(const AppParams &params, const AppLayout &layout,
                        unsigned warpIndex, unsigned totalWarps,
                        std::uint64_t seed);

    bool next(WarpInstr &out) override;

    void
    serialize(ckpt::Archive &ar) override
    {
        ar.io(rng_);
        ar.io(cursor_);
        ar.io(issued_);
        ar.io(computeLeft_);
    }

  private:
    void emitMemory(WarpInstr &out);

    const AppParams &params_;
    const AppLayout &layout_;
    Rng rng_;
    std::uint64_t cursor_;         ///< sequential position (touched bytes)
    std::uint64_t issued_ = 0;     ///< instructions emitted
    unsigned computeLeft_;         ///< compute instrs before next memory
};

}  // namespace mosaic

#endif  // MOSAIC_WORKLOAD_ACCESS_PATTERN_H
