#include "src/sim/engine.h"

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/obs/trace.h"

namespace perfiface {

void Engine::AddModule(Module* m) {
  PI_CHECK(m != nullptr);
  modules_.push_back(m);
}

void Engine::AddFifo(FifoBase* f) {
  PI_CHECK(f != nullptr);
  fifos_.push_back(f);
}

void Engine::TickOnce() {
  for (Module* m : modules_) {
    m->Tick(now_);
  }
  for (FifoBase* f : fifos_) {
    f->CommitStaged();
  }
  ++now_;
}

bool Engine::AllIdle() const {
  for (const Module* m : modules_) {
    if (!m->Idle()) {
      return false;
    }
  }
  for (const FifoBase* f : fifos_) {
    if (!f->Empty()) {
      return false;
    }
  }
  return true;
}

template <typename StopFn>
bool Engine::RunLoop(Cycles deadline, StopFn&& stop) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool traced = tracer.enabled();
  obs::SpanGuard span("sim", "run");
  const Cycles start = now_;
  std::vector<std::uint64_t> busy;
  if (traced) {
    busy.assign(modules_.size(), 0);
  }

  bool done = false;
  while (now_ < deadline) {
    if (stop()) {
      done = true;
      break;
    }
    if (traced) {
      for (std::size_t m = 0; m < modules_.size(); ++m) {
        if (!modules_[m]->Idle()) {
          ++busy[m];
        }
      }
    }
    TickOnce();
  }

  if (span.active()) {
    span.SetArg("cycles", static_cast<double>(now_ - start));
  }
  if (traced) {
    // One counter track per module: busy cycles attributed to this run.
    for (std::size_t m = 0; m < modules_.size(); ++m) {
      tracer.CounterDyn("sim", "busy_cycles." + std::string(modules_[m]->name()),
                        static_cast<double>(busy[m]));
    }
  }
  return done;
}

bool Engine::RunUntilIdle(Cycles max_cycles) {
  if (RunLoop(now_ + max_cycles, [&] { return AllIdle(); })) {
    return true;
  }
  return AllIdle();
}

void Engine::RunFor(Cycles cycles) {
  RunLoop(now_ + cycles, [] { return false; });
}

}  // namespace perfiface
