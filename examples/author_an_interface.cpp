// How a vendor ships an executable interface: author a PerfScript program
// for the Bitcoin miner, then validate it against the hardware (simulator)
// the way the paper's authors validated theirs — this is the "accelerator
// designers can manually produce performance interfaces" workflow from §5.
#include <cstdio>

#include "src/accel/bitcoin/miner.h"
#include "src/core/program_interface.h"
#include "src/perfscript/value.h"

namespace perfiface {
namespace {

// The interface program a miner vendor would ship. `job` exposes the
// configuration and the expected number of attempts until a share is found.
constexpr const char* kMinerInterface = R"(
# Bitcoin miner performance interface (vendor-authored).
# latency per attempt is exactly the Loop configuration parameter; a search
# that needs N attempts therefore takes N * Loop cycles.
def latency_per_attempt(job):
  return job.loop
end

def search_latency(job):
  return job.expected_attempts * job.loop
end

def tput_attempts(job):
  return 1 / job.loop
end

def area_kge(job):
  # fixed controller + one round unit per unrolled round
  return 18 + 5.5 * (192 / job.loop)
end
)";

// The workload descriptor the interface reads.
class MiningJob : public ScriptObject {
 public:
  MiningJob(int loop, double expected_attempts)
      : loop_(loop), expected_attempts_(expected_attempts) {}

  std::optional<double> GetAttr(std::string_view name) const override {
    if (name == "loop") {
      return static_cast<double>(loop_);
    }
    if (name == "expected_attempts") {
      return expected_attempts_;
    }
    return std::nullopt;
  }

 private:
  int loop_;
  double expected_attempts_;
};

}  // namespace
}  // namespace perfiface

int main() {
  using namespace perfiface;

  ProgramInterface iface = ProgramInterface::FromSource(kMinerInterface);
  iface.Compile();
  std::printf("vendor-authored interface program:\n%s\n", kMinerInterface);

  std::printf("validation against the hardware (functional double-SHA-256 miner):\n");
  std::printf("  %-6s %18s %18s %12s %12s\n", "Loop", "iface cycles", "actual cycles",
              "iface area", "actual area");
  bool all_exact = true;
  for (int loop : {4, 16, 64}) {
    BitcoinMinerSim hardware{MinerConfig{loop}};
    BlockHeader header;
    header.timestamp = 777;
    // Run a real search at difficulty 8 (expected 256 attempts).
    const MineResult result = hardware.Mine(header, 0, 1 << 20, /*difficulty_zero_bits=*/8);

    const MiningJob job(loop, static_cast<double>(result.attempts));
    const double iface_cycles = iface.Eval("search_latency", job);
    const double iface_area = iface.Eval("area_kge", job);
    std::printf("  %-6d %18.0f %18llu %12.1f %12.1f\n", loop, iface_cycles,
                static_cast<unsigned long long>(result.cycles), iface_area, hardware.Area());
    all_exact = all_exact && iface_cycles == static_cast<double>(result.cycles) &&
                iface_area == hardware.Area();
  }
  std::printf("\ninterface is %s against the implementation.\n",
              all_exact ? "cycle-exact" : "NOT exact");
  std::printf(
      "For simple fixed-function accelerators, authoring an interface takes\n"
      "minutes — which is the paper's argument for why vendors should ship them.\n");
  return 0;
}
