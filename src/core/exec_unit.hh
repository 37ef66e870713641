/**
 * @file
 * Execution pipelines.
 *
 * A pipe accepts one warp instruction per @c initiation cycles and
 * produces its result @c latency cycles after dispatch.  A cluster
 * owns one PipeSet whose pipe counts scale with the number of
 * schedulers sharing the cluster (so a fully-connected SM pools the
 * pipes of all four sub-cores).
 */

#ifndef SCSIM_CORE_EXEC_UNIT_HH
#define SCSIM_CORE_EXEC_UNIT_HH

#include <vector>

#include "config/gpu_config.hh"
#include "isa/instruction.hh"

namespace scsim {

class ExecPipe
{
  public:
    ExecPipe(UnitKind kind, int initiation, int latency)
        : kind_(kind), initiation_(initiation), latency_(latency)
    {}

    UnitKind kind() const { return kind_; }
    int latency() const { return latency_; }
    bool canAccept(Cycle now) const { return now >= busyUntil_; }

    void
    accept(Cycle now)
    {
        busyUntil_ = now + static_cast<Cycle>(initiation_);
    }

    void reset() { busyUntil_ = 0; }

  private:
    friend class PipeSet;   // snapshots busyUntil_

    UnitKind kind_;
    int initiation_;
    int latency_;
    Cycle busyUntil_ = 0;
};

class PipeSet
{
  public:
    /** Build the pipes for a cluster hosting @p schedulers schedulers. */
    PipeSet(const GpuConfig &cfg, int schedulers);

    /** A free pipe of @p kind, or nullptr. */
    ExecPipe *findFree(UnitKind kind, Cycle now);

    const std::vector<ExecPipe> &pipes() const { return pipes_; }

    void reset();

    /** Checkpointing (common/state_io.hh): only busyUntil_ is dynamic;
     *  the shape is config. */
    template <class Self, class V> static void visitState(Self &self, V &v);

  private:
    std::vector<ExecPipe> pipes_;
};

} // namespace scsim

#endif // SCSIM_CORE_EXEC_UNIT_HH
