#include "src/obs/build_info.h"

#include <chrono>

#include "src/common/strings.h"
#include "src/obs/exposition.h"

#ifndef PERFIFACE_GIT_DESCRIBE
#define PERFIFACE_GIT_DESCRIBE "unknown"
#endif
#ifndef PERFIFACE_BUILD_TYPE
#define PERFIFACE_BUILD_TYPE "unknown"
#endif

namespace perfiface::obs {

namespace {

// Captured during static initialization, i.e. before main() runs.
const double kProcessStartSeconds =
    static_cast<double>(std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count()) /
    1e3;

}  // namespace

const char* BuildVersion() { return "0.7.0"; }

const char* BuildGitDescribe() { return PERFIFACE_GIT_DESCRIBE; }

const char* BuildCompiler() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* BuildType() { return PERFIFACE_BUILD_TYPE; }

double ProcessStartTimeSeconds() { return kProcessStartSeconds; }

std::string BuildInfoJson() {
  std::string out = "{\"version\":";
  AppendJsonString(&out, BuildVersion());
  out += ",\"git\":";
  AppendJsonString(&out, BuildGitDescribe());
  out += ",\"compiler\":";
  AppendJsonString(&out, BuildCompiler());
  out += ",\"build_type\":";
  AppendJsonString(&out, BuildType());
  out += '}';
  return out;
}

void AppendBuildInfoMetrics(std::string* out) {
  *out += "# HELP perfiface_build_info Build metadata; the value is always 1.\n";
  *out += "# TYPE perfiface_build_info gauge\n";
  *out += StrFormat(
      "perfiface_build_info{version=\"%s\",git=\"%s\",compiler=\"%s\",build_type=\"%s\"} 1\n",
      EscapeLabelValue(BuildVersion()).c_str(), EscapeLabelValue(BuildGitDescribe()).c_str(),
      EscapeLabelValue(BuildCompiler()).c_str(), EscapeLabelValue(BuildType()).c_str());
  *out += "# HELP perfiface_process_start_time_seconds Unix time the process started.\n";
  *out += "# TYPE perfiface_process_start_time_seconds gauge\n";
  *out += StrFormat("perfiface_process_start_time_seconds %.3f\n", ProcessStartTimeSeconds());
}

}  // namespace perfiface::obs
