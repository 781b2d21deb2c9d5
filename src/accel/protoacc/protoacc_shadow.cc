#include "src/accel/protoacc/protoacc_shadow.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/protoacc/message.h"
#include "src/accel/protoacc/serializer_sim.h"
#include "src/accel/protoacc/wire.h"
#include "src/common/strings.h"
#include "src/serve/request.h"
#include "src/serve/shadow.h"

namespace perfiface::protoacc {

namespace {

// Bounds that keep one shadow replay cheap: 4096 fields per node and a
// 16 MiB wire encoding are far past the calibration corpus (the Fig 3
// evaluation's 32 formats top out at tens of fields).
constexpr std::uint64_t kMaxFields = 4096;
constexpr std::uint64_t kMaxWrites = 1u << 20;
constexpr std::uint64_t kMaxChildren = 64;
constexpr std::uint64_t kMaxGroups = 128;

// The seed every shadow replay uses, so truth is deterministic for a
// given workload (same convention as jpeg_shadow.cc).
constexpr std::uint64_t kShadowSeed = 2024;

bool GetAttr(const serve::PredictRequest& request, const char* name, double* out,
             std::string* error) {
  for (const auto& kv : request.attrs) {
    if (kv.first == name) {
      *out = kv.second;
      return true;
    }
  }
  *error = StrFormat("protoacc shadow: missing attr '%s'", name);
  return false;
}

// A positive integer attribute bounded by `max`.
bool GetCount(const serve::PredictRequest& request, const char* name, std::uint64_t max,
              std::uint64_t* out, std::string* error) {
  double v = 0;
  if (!GetAttr(request, name, &v, error)) {
    return false;
  }
  if (!(v >= 1) || v > static_cast<double>(max) || v != std::floor(v)) {
    *error = StrFormat("protoacc shadow: attr '%s' is not a positive integer <= %llu", name,
                       static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

// A flat node with `fields` one-byte varint fields (numbers 1..fields).
MessageInstance FlatNode(std::uint64_t fields) {
  MessageInstance node;
  node.fields.reserve(fields);
  for (std::uint64_t i = 0; i < fields; ++i) {
    FieldValue f;
    f.type = WireFieldType::kVarint;
    f.field_number = static_cast<std::uint32_t>(i + 1);
    f.varint = 1;
    node.fields.push_back(std::move(f));
  }
  return node;
}

// Builds the message the request describes: a root with `num_fields`
// direct fields, `children` of which are sub-messages (each itself
// carrying `num_fields` scalar fields — the uniform-children shorthand),
// and one length-delimited filler field whose payload is grown until the
// real wire encoding occupies exactly `num_writes` 16-byte words. Returns
// false when no such encoding exists (num_writes below the structural
// minimum, or more children than fields).
bool BuildMessage(std::uint64_t num_fields, std::uint64_t num_writes, std::uint64_t children,
                  MessageInstance* out, std::string* error) {
  if (children + 1 > num_fields) {
    *error = "protoacc shadow: children plus the filler field exceed num_fields";
    return false;
  }
  MessageInstance msg;
  msg.fields.reserve(num_fields);
  for (std::uint64_t i = 0; i < children; ++i) {
    FieldValue f;
    f.type = WireFieldType::kMessage;
    f.field_number = static_cast<std::uint32_t>(i + 1);
    f.sub = std::make_unique<MessageInstance>(FlatNode(num_fields));
    msg.fields.push_back(std::move(f));
  }
  for (std::uint64_t i = children; i + 1 < num_fields; ++i) {
    FieldValue f;
    f.type = WireFieldType::kVarint;
    f.field_number = static_cast<std::uint32_t>(i + 1);
    f.varint = 1;
    msg.fields.push_back(std::move(f));
  }
  FieldValue filler;
  filler.type = WireFieldType::kLength;
  filler.field_number = static_cast<std::uint32_t>(num_fields);
  filler.length = 0;
  msg.fields.push_back(std::move(filler));

  // Grow the filler payload toward the target word count. Each round can
  // undershoot by at most the growth of the varint length prefix, so a
  // handful of rounds always settles — or proves the target unreachable.
  for (int round = 0; round < 8; ++round) {
    const Bytes size = SerializedSize(msg);
    const std::uint64_t words = (size + 15) / 16;
    if (words == num_writes) {
      *out = std::move(msg);
      return true;
    }
    if (words > num_writes) {
      *error = StrFormat(
          "protoacc shadow: num_writes=%llu is below the structural minimum (%llu words)",
          static_cast<unsigned long long>(num_writes),
          static_cast<unsigned long long>(words));
      return false;
    }
    const std::uint64_t needed = (num_writes - 1) * 16 + 1 - size;
    msg.fields.back().length += static_cast<std::uint32_t>(needed);
  }
  *error = "protoacc shadow: filler adjustment did not converge";
  return false;
}

double SimulateThroughput(const MessageInstance& msg) {
  ProtoaccSim sim(ProtoaccTiming{}, ProtoaccSim::RecommendedMemoryConfig(), kShadowSeed);
  return sim.Measure(msg).throughput;
}

double SimulateLatency(const MessageInstance& msg) {
  ProtoaccSim sim(ProtoaccTiming{}, ProtoaccSim::RecommendedMemoryConfig(), kShadowSeed);
  return static_cast<double>(sim.Measure(msg).latency);
}

// Program replay: tput_protoacc_ser(num_fields, num_writes [, children]).
// min/max_latency_protoacc_ser are bounds — the paper's point is exactly
// that Protoacc's latency has no closed form — so they have no point
// ground truth and are refused.
bool ProgramTruth(const serve::PredictRequest& request, double* truth, std::string* error) {
  std::uint64_t num_fields = 0;
  std::uint64_t num_writes = 0;
  if (!GetCount(request, "num_fields", kMaxFields, &num_fields, error) ||
      !GetCount(request, "num_writes", kMaxWrites, &num_writes, error)) {
    return false;
  }
  if (request.children < 0 ||
      static_cast<std::uint64_t>(request.children) > kMaxChildren) {
    *error = "protoacc shadow: children out of replayable range";
    return false;
  }
  MessageInstance msg;
  if (!BuildMessage(num_fields, num_writes, static_cast<std::uint64_t>(request.children),
                    &msg, error)) {
    return false;
  }
  *truth = SimulateThroughput(msg);
  return true;
}

// Pnet replay: the single-node plan — node_q:1 plus msg_q:1, the token
// carrying groups/first/writes. Multi-node plans are not replayable: every
// injected token shares one attribute vector, so `first` cannot
// distinguish the root from the rest of a real message tree.
bool PnetTruth(const serve::PredictRequest& request, double* truth, std::string* error) {
  if (request.entry_place.empty()) {
    *error = "protoacc shadow: default-entry pnet queries are not replayable";
    return false;
  }
  // The service's own parser: its items are sorted and duplicate-merged.
  const serve::InjectionPlan plan = serve::ParseInjectionPlan(request);
  if (!plan.ok()) {
    *error = "protoacc shadow: " + plan.error;
    return false;
  }
  int node_tokens = 0;
  int msg_tokens = 0;
  for (const serve::InjectionPlan::Item& item : plan.items) {
    if (item.place == "node_q") {
      node_tokens = item.count;
    } else if (item.place == "msg_q") {
      msg_tokens = item.count;
    } else {
      *error = StrFormat("protoacc shadow: injection into '%s' is not replayable",
                         item.place.c_str());
      return false;
    }
  }
  if (node_tokens != 1 || msg_tokens != 1) {
    *error = "protoacc shadow: replayable plans are node_q:1 plus msg_q:1";
    return false;
  }

  std::uint64_t groups = 0;
  std::uint64_t first = 0;
  std::uint64_t writes = 0;
  if (!GetCount(request, "groups", kMaxGroups, &groups, error) ||
      !GetCount(request, "first", /*max=*/1, &first, error) ||
      !GetCount(request, "writes", kMaxWrites, &writes, error)) {
    return false;
  }
  MessageInstance msg;
  // One node, `groups` full field groups: the net's read delay models
  // ceil(num_fields / 32) == groups memory accesses.
  if (!BuildMessage(groups * 32, writes, /*children=*/0, &msg, error)) {
    return false;
  }
  *truth = SimulateLatency(msg);
  return true;
}

}  // namespace

bool ProtoaccShadowTruth(const serve::PredictRequest& request, double* truth,
                         std::string* error) {
  if (!request.function.empty()) {
    if (request.function != "tput_protoacc_ser") {
      *error = StrFormat("protoacc shadow: no point ground truth for function '%s'",
                         request.function.c_str());
      return false;
    }
    if (!request.entry_place.empty()) {
      *error = "protoacc shadow: program queries take no injection plan";
      return false;
    }
    return ProgramTruth(request, truth, error);
  }
  return PnetTruth(request, truth, error);
}

void RegisterProtoaccShadowBackend() {
  serve::ShadowBackendRegistry::Global().Register("protoacc", ProtoaccShadowTruth);
}

}  // namespace perfiface::protoacc
