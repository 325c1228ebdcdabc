/**
 * @file
 * Warp-level instruction abstraction.
 *
 * The simulator models execution at warp granularity: one WarpInstr is a
 * warp-wide instruction. A compute instruction keeps the warp busy for a
 * dependency latency; a memory instruction produces a small set of
 * coalesced cache-line addresses (the per-thread accesses of a warp are
 * coalesced before reaching the L1, per the paper's Table 1), and under
 * SIMT lockstep the warp stalls until every line (and its address
 * translation) completes.
 */

#ifndef MOSAIC_GPU_WARP_H
#define MOSAIC_GPU_WARP_H

#include <array>
#include <cstdint>

#include "ckpt/serde.h"
#include "common/types.h"

namespace mosaic {

/** Maximum coalesced line accesses per warp memory instruction. */
inline constexpr unsigned kMaxLinesPerInstr = 8;

/** One warp-wide instruction. */
struct WarpInstr
{
    bool isMemory = false;
    /** Compute: cycles until the warp may issue again. */
    Cycles computeLatency = 1;
    /** Memory: coalesced line addresses (virtual). */
    std::array<Addr, kMaxLinesPerInstr> lineAddrs{};
    unsigned numLines = 0;
    bool isStore = false;
};

/**
 * Produces a warp's instruction stream. Implementations live in the
 * workload library; the GPU core model only pulls from this interface.
 */
class WarpStream
{
  public:
    virtual ~WarpStream() = default;

    /**
     * Fills @p out with the warp's next instruction.
     * @return false when the warp has retired its entire stream.
     */
    virtual bool next(WarpInstr &out) = 0;

    /**
     * Checkpoint hook (DESIGN.md §14): the stream's cursor, so a
     * restored warp resumes at exactly the next instruction. The stream
     * is reconstructed from the workload config before a load, so
     * implementations only carry mutable progress (position, RNG draw
     * state, pending compute latency), not the generator parameters.
     */
    virtual void serialize(ckpt::Archive &ar) = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_GPU_WARP_H
