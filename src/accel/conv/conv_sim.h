// Cycle-level simulator of the conv-engine accelerator.
//
// Ticks every unit on every clock cycle, RTL-simulation style, which is why
// profiling through it is slow and why the event-driven interfaces win the
// auto-tuning comparison: this loop's cost scales with simulated cycles,
// the net's with macro-commands.
//
// Modeled detail (and what the performance interfaces abstract):
//   * FETCH dispatches one command per cycle into per-unit queues (depth
//     4), with a periodic command-fetch refill stall (unmodeled in the
//     interfaces).
//   * WLOAD/ILOAD share one inbound DMA engine; STORE owns the outbound
//     one. Both burst through the banked DRAM model over a *shared* memory
//     bus, so overlapping transfers contend (the interfaces use one
//     nominal burst latency; contention and DRAM jitter are their error
//     sources).
//   * The MAC array retires one 4-wide group per cycle after a fixed
//     pipeline-fill cost.
//   * Credit tokens implement line-buffer / output-buffer double buffering
//     and the weight-latch handshake of the weight-stationary dataflow.
#ifndef SRC_ACCEL_CONV_CONV_SIM_H_
#define SRC_ACCEL_CONV_CONV_SIM_H_

#include <cstdint>

#include "src/accel/conv/conv_layer.h"
#include "src/common/types.h"
#include "src/mem/memory_system.h"

namespace perfiface {

struct ConvTiming {
  std::size_t cmd_queue_depth = 4;
  std::uint32_t cmdfetch_period = 64;  // commands between refill stalls
  Cycles cmdfetch_stall = 12;

  Cycles mac_base = 6;  // MAC-array pipeline fill per tile

  Cycles dma_setup = 4;
  std::uint32_t dma_burst_words = 8;
  Cycles dma_burst_transfer = 8;  // bus occupancy per burst

  std::size_t ibuf_credits = 2;  // line-buffer double-buffer slots
  std::size_t obuf_credits = 2;  // output-buffer double-buffer slots
  std::size_t wbuf_credits = 1;  // weight BRAM slots (latch frees the slot)

  Cycles finish_cost = 4;

  // Nominal per-burst DRAM access latency: the single constant the
  // interfaces ship instead of the full memory model.
  double nominal_burst_latency = 52.0;

  // Per-simulated-cycle netlist-evaluation work (xorshift rounds), the
  // stand-in for RTL evaluation cost — the denominator of the paper's
  // auto-tuning speedup. Set to 0 for tests that only read timing.
  std::uint32_t rtl_emulation_ops = 24;
};

struct ConvRunResult {
  Cycles latency = 0;     // single program execution
  double throughput = 0;  // commands/cycle, steady-state streaming
  std::uint64_t commands = 0;
  std::uint64_t stores_completed = 0;
};

// Per-stage busy-cycle attribution of one run (ConvSim::last_stage_cycles,
// also exported as trace counter tracks).
struct ConvStageCycles {
  std::uint64_t dma_in = 0;
  std::uint64_t mac = 0;
  std::uint64_t dma_out = 0;
};

class ConvSim {
 public:
  ConvSim(const ConvTiming& timing, const MemoryConfig& mem_config, std::uint64_t seed);

  // The memory system the conv DMA engines are designed against (pinned,
  // hugepage-backed scratchpad transfers — cheap page walks). The
  // interfaces' burst_lat constant was calibrated against this config.
  static MemoryConfig RecommendedMemoryConfig() {
    MemoryConfig config;
    config.tlb_miss_walk_latency = 40;
    return config;
  }

  // Runs one command stream (must end in FINISH); returns latency in
  // cycles.
  Cycles RunLatency(const ConvProgram& program);

  // Latency plus steady-state throughput over `copies` back-to-back
  // executions of the program body.
  ConvRunResult Measure(const ConvProgram& program, std::size_t copies = 3);

  const ConvTiming& timing() const { return timing_; }

  // Stage attribution of the last RunLatency/Measure call.
  const ConvStageCycles& last_stage_cycles() const { return last_stage_cycles_; }

  // Folded netlist-emulation state of the last run (observable so the
  // per-cycle work cannot be optimized away).
  std::uint64_t last_datapath_hash() const { return last_datapath_hash_; }

 private:
  ConvTiming timing_;
  MemoryConfig mem_config_;
  std::uint64_t seed_;
  ConvStageCycles last_stage_cycles_;
  std::uint64_t last_datapath_hash_ = 0;
};

}  // namespace perfiface

#endif  // SRC_ACCEL_CONV_CONV_SIM_H_
