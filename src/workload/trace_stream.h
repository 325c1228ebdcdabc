/**
 * @file
 * Trace-driven warp instruction streams.
 *
 * Besides the synthetic application models, the simulator can replay
 * externally-captured per-warp instruction traces (e.g., distilled from
 * a real GPGPU-Sim or NVBit run). The format is line-oriented text:
 *
 *   # comment
 *   W <warp-index>              start of a warp's stream
 *   C <latency>                 compute instruction (cycles)
 *   L <hex-va> [<hex-va> ...]   load: coalesced line addresses (<= 8)
 *   S <hex-va> [<hex-va> ...]   store: coalesced line addresses (<= 8)
 *
 * Warps not mentioned in the trace get empty streams. A TraceFile is
 * parsed once and shared by the per-warp TraceWarpStream cursors.
 */

#ifndef MOSAIC_WORKLOAD_TRACE_STREAM_H
#define MOSAIC_WORKLOAD_TRACE_STREAM_H

#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "gpu/warp.h"

namespace mosaic {

/** A parsed trace: one instruction list per warp. */
class TraceFile
{
  public:
    /** Parses a trace from @p in; fatal on malformed input. */
    static std::shared_ptr<TraceFile> parse(std::istream &in);

    /** Parses a trace from the file at @p path; fatal if unreadable. */
    static std::shared_ptr<TraceFile> load(const std::string &path);

    /** Number of warps with a (possibly empty) stream. */
    std::size_t numWarps() const { return warps_.size(); }

    /** Instruction list of warp @p idx (empty when beyond numWarps). */
    const std::vector<WarpInstr> &
    warp(std::size_t idx) const
    {
        static const std::vector<WarpInstr> empty;
        return idx < warps_.size() ? warps_[idx] : empty;
    }

    /** Total instructions across all warps. */
    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t total = 0;
        for (const auto &w : warps_)
            total += w.size();
        return total;
    }

  private:
    std::vector<std::vector<WarpInstr>> warps_;
};

/** WarpStream replaying one warp of a TraceFile. */
class TraceWarpStream : public WarpStream
{
  public:
    TraceWarpStream(std::shared_ptr<const TraceFile> trace,
                    std::size_t warpIdx)
        : trace_(std::move(trace)), warpIdx_(warpIdx)
    {
    }

    bool
    next(WarpInstr &out) override
    {
        const auto &instrs = trace_->warp(warpIdx_);
        if (cursor_ >= instrs.size())
            return false;
        out = instrs[cursor_++];
        return true;
    }

    void serialize(ckpt::Archive &ar) override { ar.io(cursor_); }

  private:
    std::shared_ptr<const TraceFile> trace_;
    std::size_t warpIdx_;
    std::size_t cursor_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_WORKLOAD_TRACE_STREAM_H
