#include "core/exec_unit.hh"

#include "common/state_io.hh"

namespace scsim {

PipeSet::PipeSet(const GpuConfig &cfg, int schedulers)
{
    auto addPipes = [&](UnitKind kind, int perSched, int init, int lat) {
        for (int i = 0; i < perSched * schedulers; ++i)
            pipes_.emplace_back(kind, init, lat);
    };
    addPipes(UnitKind::SP, cfg.spPipesPerScheduler, cfg.spInitiation,
             cfg.spLatency);
    addPipes(UnitKind::SFU, cfg.sfuPipesPerScheduler, cfg.sfuInitiation,
             cfg.sfuLatency);
    addPipes(UnitKind::Tensor, cfg.tensorPipesPerScheduler,
             cfg.tensorInitiation, cfg.tensorLatency);
    addPipes(UnitKind::LdSt, cfg.ldstPipesPerScheduler,
             cfg.ldstInitiation, 0);
}

ExecPipe *
PipeSet::findFree(UnitKind kind, Cycle now)
{
    for (auto &pipe : pipes_)
        if (pipe.kind() == kind && pipe.canAccept(now))
            return &pipe;
    return nullptr;
}

void
PipeSet::reset()
{
    for (auto &pipe : pipes_)
        pipe.reset();
}

template <class Self, class V>
void
PipeSet::visitState(Self &self, V &v)
{
    for (auto &pipe : self.pipes_)
        v.field("pipe.busyUntil", pipe.busyUntil_);
}

template void PipeSet::visitState(const PipeSet &, StateWriter &);
template void PipeSet::visitState(PipeSet &, StateReader &);

} // namespace scsim
