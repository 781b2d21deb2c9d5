#include "src/accel/conv/conv_sim.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/trace.h"

namespace perfiface {
namespace {

// Shared memory bus: inbound and outbound DMA bursts serialize on it. Each
// engine owns a private memory channel (TLB + bank state) because DMAs are
// precomputed at issue; cross-engine contention is carried by the bus
// reservation, made in issue order and therefore causally consistent.
struct SharedBus {
  Cycles free_at = 0;
};

Cycles DmaDuration(const ConvTiming& timing, std::uint32_t words, Cycles now, MemorySystem* mem,
                   SharedBus* bus, std::uint64_t* addr_cursor) {
  const std::uint32_t bursts = (words + timing.dma_burst_words - 1) / timing.dma_burst_words;

  // Queue for bus bandwidth behind in-flight transfers.
  const Cycles bus_start = std::max(now, bus->free_at);
  bus->free_at = bus_start + static_cast<Cycles>(bursts) * timing.dma_burst_transfer;
  const Cycles queue_wait = bus_start - now;

  Cycles t = now + queue_wait + timing.dma_setup;
  for (std::uint32_t b = 0; b < bursts; ++b) {
    const Cycles lat = mem->Access(*addr_cursor, t);
    *addr_cursor += 16ULL * timing.dma_burst_words;
    t += lat + timing.dma_burst_transfer;
  }
  return t - now;
}

// Hardware-FIFO handoff: tokens pushed in cycle T are usable from T+1.
struct TokenQueue {
  std::deque<Cycles> ready_at;

  void Push(Cycles now) { ready_at.push_back(now + 1); }
  void PushInitial(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ready_at.push_back(0);
    }
  }
  std::size_t Usable(Cycles now) const {
    std::size_t n = 0;
    for (Cycles t : ready_at) {
      if (t <= now) {
        ++n;
      }
    }
    return n;
  }
  void Pop(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      PI_CHECK(!ready_at.empty());
      ready_at.pop_front();
    }
  }
};

struct CmdQueue {
  std::deque<std::pair<ConvCmd, Cycles>> entries;  // command, visible-from

  bool HasUsable(Cycles now) const { return !entries.empty() && entries.front().second <= now; }
  std::size_t Size() const { return entries.size(); }
};

struct Executor {
  bool busy = false;
  Cycles busy_until = 0;
  ConvCmd current;
};

struct MachineState {
  MachineState(const MemoryConfig& mem_config, std::uint64_t seed)
      : in_mem(mem_config, DeriveSeed(seed, 31)), out_mem(mem_config, DeriveSeed(seed, 32)) {}

  CmdQueue dma_in_q, mac_q, store_q;
  // w2m: weights landed, awaiting the latching MAC. i2m: input patch
  // landed. m2s: MAC results awaiting STORE. ibuf/obuf/wbuf: buffer-slot
  // credits.
  TokenQueue w2m, i2m, m2s, ibuf, obuf, wbuf;
  Executor dma_in, mac, store;
  SharedBus bus;
  MemorySystem in_mem;
  MemorySystem out_mem;
  std::uint64_t in_addr = 0x10000000;
  std::uint64_t out_addr = 0x20000000;
  std::uint64_t stores_completed = 0;
  std::vector<Cycles> store_times;
  ConvStageCycles stage;
  // Folded netlist-emulation state; observable so the per-cycle work
  // cannot be elided.
  std::uint64_t datapath_hash = 0;
};

// Runs `program` (must end in FINISH) cycle by cycle; returns the
// completion time and fills `st->store_times`.
Cycles RunProgram(const ConvTiming& timing, const ConvProgram& program, MachineState* st) {
  const std::string err = ValidateConvProgram(program);
  PI_CHECK_MSG(err.empty(), err.c_str());

  st->ibuf.PushInitial(timing.ibuf_credits);
  st->obuf.PushInitial(timing.obuf_credits);
  st->wbuf.PushInitial(timing.wbuf_credits);

  std::size_t pc = 0;
  const std::size_t body_end = program.size() - 1;  // FINISH handled at drain
  Cycles fetch_stall_until = 0;
  std::uint32_t dispatched = 0;

  Cycles now = 0;
  std::uint64_t datapath_state = 0x452821E638D01377ULL;  // netlist emulation
  for (;;) {
    // ---- Netlist evaluation: the per-cycle cost of RTL simulation. ----
    for (std::uint32_t i = 0; i < timing.rtl_emulation_ops; ++i) {
      datapath_state ^= datapath_state << 13;
      datapath_state ^= datapath_state >> 7;
      datapath_state ^= datapath_state << 17;
    }

    // ---- FETCH: one dispatch per cycle, periodic refill stall. ----
    if (pc < body_end && now >= fetch_stall_until) {
      const ConvCmd& cmd = program[pc];
      CmdQueue* target = nullptr;
      switch (cmd.op) {
        case ConvOp::kWeightLoad:
        case ConvOp::kInputLoad: target = &st->dma_in_q; break;
        case ConvOp::kMac: target = &st->mac_q; break;
        case ConvOp::kStore: target = &st->store_q; break;
        case ConvOp::kFinish: target = nullptr; break;
      }
      PI_CHECK(target != nullptr);
      if (target->Size() < timing.cmd_queue_depth) {
        target->entries.emplace_back(cmd, now + 1);
        ++pc;
        ++dispatched;
        if (dispatched % timing.cmdfetch_period == 0) {
          fetch_stall_until = now + 1 + timing.cmdfetch_stall;
        }
      }
    }

    // ---- DMA-IN (WLOAD + ILOAD share the inbound engine). ----
    if (st->dma_in.busy && now >= st->dma_in.busy_until) {
      st->dma_in.busy = false;
      if (st->dma_in.current.op == ConvOp::kWeightLoad) {
        st->w2m.Push(now);
      } else {
        st->i2m.Push(now);
      }
    }
    if (!st->dma_in.busy && st->dma_in_q.HasUsable(now)) {
      const ConvCmd& cmd = st->dma_in_q.entries.front().first;
      const bool weight = cmd.op == ConvOp::kWeightLoad;
      TokenQueue& credit = weight ? st->wbuf : st->ibuf;
      if (credit.Usable(now) >= 1) {
        credit.Pop(1);
        st->dma_in.current = cmd;
        st->dma_in.busy = true;
        st->dma_in.busy_until =
            now + DmaDuration(timing, cmd.dma_words, now, &st->in_mem, &st->bus, &st->in_addr);
        st->dma_in_q.entries.pop_front();
      }
    }

    // ---- MAC array. ----
    if (st->mac.busy && now >= st->mac.busy_until) {
      st->mac.busy = false;
      st->ibuf.Push(now);  // input patch fully consumed
      st->m2s.Push(now);
    }
    if (!st->mac.busy && st->mac_q.HasUsable(now)) {
      const ConvCmd& cmd = st->mac_q.entries.front().first;
      const std::size_t need_w = cmd.pop_weights ? 1 : 0;
      if (st->i2m.Usable(now) >= 1 && st->obuf.Usable(now) >= 1 &&
          st->w2m.Usable(now) >= need_w) {
        st->i2m.Pop(1);
        st->obuf.Pop(1);
        if (cmd.pop_weights) {
          st->w2m.Pop(1);
          st->wbuf.Push(now);  // weights latched into the array; slot free
        }
        st->mac.current = cmd;
        st->mac.busy = true;
        st->mac.busy_until = now + timing.mac_base + static_cast<Cycles>(cmd.groups);
        st->mac_q.entries.pop_front();
      }
    }

    // ---- DMA-OUT (STORE). ----
    if (st->store.busy && now >= st->store.busy_until) {
      st->store.busy = false;
      st->obuf.Push(now);
      ++st->stores_completed;
      st->store_times.push_back(now);
    }
    if (!st->store.busy && st->store_q.HasUsable(now)) {
      const ConvCmd& cmd = st->store_q.entries.front().first;
      if (st->m2s.Usable(now) >= 1) {
        st->m2s.Pop(1);
        st->store.current = cmd;
        st->store.busy = true;
        st->store.busy_until =
            now + DmaDuration(timing, cmd.dma_words, now, &st->out_mem, &st->bus, &st->out_addr);
        st->store_q.entries.pop_front();
      }
    }

    // ---- Stage attribution. ----
    if (st->dma_in.busy) {
      ++st->stage.dma_in;
    }
    if (st->mac.busy) {
      ++st->stage.mac;
    }
    if (st->store.busy) {
      ++st->stage.dma_out;
    }

    // ---- Completion check. ----
    const bool drained = pc >= body_end && st->dma_in_q.Size() == 0 && st->mac_q.Size() == 0 &&
                         st->store_q.Size() == 0 && !st->dma_in.busy && !st->mac.busy &&
                         !st->store.busy;
    if (drained) {
      st->datapath_hash = datapath_state;
      return now + timing.finish_cost;
    }
    ++now;
    PI_CHECK_MSG(now < 500'000'000ULL, "conv program did not drain (deadlock?)");
  }
}

// Trace instrumentation of one cycle-level run (same grain as the src/sim
// engine's RunLoop).
void RecordRun(const MachineState& st) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (tracer.enabled()) {
    tracer.CounterDyn("conv", "busy_cycles.dma_in", static_cast<double>(st.stage.dma_in));
    tracer.CounterDyn("conv", "busy_cycles.mac", static_cast<double>(st.stage.mac));
    tracer.CounterDyn("conv", "busy_cycles.dma_out", static_cast<double>(st.stage.dma_out));
  }
}

}  // namespace

ConvSim::ConvSim(const ConvTiming& timing, const MemoryConfig& mem_config, std::uint64_t seed)
    : timing_(timing), mem_config_(mem_config), seed_(seed) {
  PI_CHECK(timing_.cmd_queue_depth >= 1);
  PI_CHECK(timing_.dma_burst_words >= 1);
  PI_CHECK(timing_.wbuf_credits >= 1);
}

Cycles ConvSim::RunLatency(const ConvProgram& program) {
  obs::SpanGuard span("conv", "sim_run");
  MachineState st(mem_config_, seed_);
  const Cycles latency = RunProgram(timing_, program, &st);
  last_datapath_hash_ = st.datapath_hash;
  last_stage_cycles_ = st.stage;
  RecordRun(st);
  if (span.active()) {
    span.SetArg("cycles", static_cast<double>(latency));
    span.SetArg("commands", static_cast<double>(program.size() - 1));
  }
  return latency;
}

ConvRunResult ConvSim::Measure(const ConvProgram& program, std::size_t copies) {
  PI_CHECK(copies >= 3);
  ConvRunResult out;
  out.commands = program.size() - 1;  // body, excluding FINISH
  out.latency = RunLatency(program);

  // Streaming: concatenate the body `copies` times. Store completions mark
  // per-copy boundaries; steady-state throughput excludes fill and drain.
  ConvProgram stream;
  std::size_t stores_per_copy = 0;
  for (const ConvCmd& cmd : program) {
    if (cmd.op == ConvOp::kStore) {
      ++stores_per_copy;
    }
  }
  PI_CHECK(stores_per_copy > 0);
  for (std::size_t c = 0; c < copies; ++c) {
    stream.insert(stream.end(), program.begin(), program.end() - 1);
  }
  ConvCmd finish;
  finish.op = ConvOp::kFinish;
  stream.push_back(finish);

  obs::SpanGuard span("conv", "sim_measure");
  MachineState st(mem_config_, seed_);
  RunProgram(timing_, stream, &st);
  last_stage_cycles_ = st.stage;
  out.stores_completed = st.stores_completed;
  PI_CHECK(st.store_times.size() == stores_per_copy * copies);
  const Cycles first = st.store_times[stores_per_copy - 1];
  const Cycles last = st.store_times[stores_per_copy * copies - 1];
  PI_CHECK(last > first);
  out.throughput = static_cast<double>(out.commands * (copies - 1)) /
                   static_cast<double>(last - first);
  return out;
}

}  // namespace perfiface
